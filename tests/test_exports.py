"""The library exports nothing that nothing reads: no public name at the top
of a module, and no public method or property of a class."""

import ast
from pathlib import Path

import braidlink

ROOT = Path(__file__).resolve().parents[1]

# Public names kept with no reader in src/ or bench/, each with its reason.
ALLOWED = {
    "conjugate": "tests/test_acceptance.py imports it (Markov invariance)",
    "stabilize": "tests/test_acceptance.py imports it (Markov invariance)",
}


def defined_names(tree):
    """The public names a module defines at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return {name for name in names if not name.startswith("_")}


def defined_members(tree):
    """(class, member) for the public methods and properties of the
    module's classes; dunders are the interpreter's, so exempt."""
    return {
        (node.name, member.name)
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for member in node.body
        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not member.name.startswith("_")
    }


def attribute_reads(tree):
    """The attribute names a module reads, as in obj.name."""
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def read_names(tree):
    """The names a module loads, imports or reads as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rpartition(".")[2] for alias in node.names)
    return names


def parsed_readers():
    """The library's modules, and the trees of those and the benchmark's."""
    library = sorted((ROOT / "src" / "braidlink").glob("*.py"))
    readers = library + sorted((ROOT / "bench").glob("*.py"))
    return library, {path: ast.parse(path.read_text(), str(path)) for path in readers}


def test_every_public_name_has_a_reader():
    library, trees = parsed_readers()
    read = set(braidlink.__all__).union(*map(read_names, trees.values()))
    unread = {
        f"{path.stem}.{name}"
        for path in library
        for name in defined_names(trees[path]) - read
    }
    assert {name.partition(".")[2] for name in unread} <= ALLOWED.keys(), sorted(unread)


def test_every_public_method_has_a_reader():
    library, trees = parsed_readers()
    read = set().union(*map(attribute_reads, trees.values()))
    unread = {
        f"{path.stem}.{cls}.{name}"
        for path in library
        for cls, name in defined_members(trees[path])
        if name not in read
    }
    assert not unread, sorted(unread)
