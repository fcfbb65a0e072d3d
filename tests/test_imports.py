"""The package exports its names lazily, and a request loads only the modules
its subcommand runs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import braidlink

SRC = str(Path(braidlink.__file__).resolve().parents[1])


def last_line_after(script: str) -> str:
    """The last line a fresh interpreter prints running script."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", "import sys\n" + script],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    return done.stdout.splitlines()[-1]


def loaded_after(script: str) -> list[str]:
    """The braidlink modules a fresh interpreter holds after running script."""
    report = "\nprint(*sorted(m for m in sys.modules if m.partition('.')[0] == 'braidlink'))"
    return last_line_after(script + report).split()


def test_import_braidlink_loads_no_submodule():
    assert loaded_after("import braidlink") == ["braidlink"]


def test_invariants_request_loads_only_the_invariant_modules():
    script = "import braidlink.cli\nbraidlink.cli.main(['invariants', 'B3 1 2'])"
    modules = ["", ".braids", ".laurent", ".matrices", ".burau", ".goeritz", ".invariants", ".cli"]
    assert loaded_after(script) == sorted("braidlink" + m for m in modules)


def test_refused_braid_projection_exits_2_and_loads_no_geometry():
    script = (
        "import braidlink.cli\n"
        "code = braidlink.cli.main(['construct', '--emit', 'braid', '--projection', 'oxz'])\n"
        "print(code, 'braidlink.geometry' in sys.modules)"
    )
    assert last_line_after(script) == "2 False"


def test_invariants_request_makes_no_fraction():
    script = (
        "import braidlink.cli\n"
        "braidlink.cli.main(['invariants', '--json', '--alexander-at', '2', 'B3 1 -2 1 -2'])\n"
        "print('fractions' in sys.modules)"
    )
    assert last_line_after(script) == "False"


@pytest.mark.parametrize(
    "argv",
    [["invariants", "--json", "B3 1 -2 1 -2"], ["construct", "--emit", "crossings"]],
    ids=" ".join,
)
def test_json_request_loads_no_json_module(argv):
    # Both JSON layouts are written directly, so a cold request does not
    # pay for importing the json package.
    script = (
        "import contextlib, io\n"
        "import braidlink.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = braidlink.cli.main({argv!r})\n"
        "print(code, 'json' in sys.modules)"
    )
    assert last_line_after(script) == "0 False"


@pytest.mark.parametrize(
    "argv",
    [["invariants", "--json", "B3 1 -2 1 -2"], ["paper"], ["construct", "--emit", "svg"]],
    ids=" ".join,
)
def test_request_loads_no_dataclasses_or_inspect(argv):
    # The value types are plain slotted classes, so a cold request does not
    # pay for dataclasses, which imports inspect, nor builds classes by exec.
    script = (
        "import contextlib, io\n"
        "import braidlink.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = braidlink.cli.main({argv!r})\n"
        "print(code, 'dataclasses' in sys.modules, 'inspect' in sys.modules)"
    )
    assert last_line_after(script) == "0 False False"


ARRANGEMENT_REQUESTS = [
    ["paper"],
    ["paper", "--variant", "positive-q0"],
    ["construct", "--emit", "braid"],
] + [
    ["construct", "--emit", emit, "--projection", projection, *smoothing]
    for emit in ("crossings", "svg")
    for projection in ("oxy", "oxz")
    for smoothing in ([], ["--smoothing", "paper"], ["--smoothing", "all-positive"])
]


@pytest.mark.parametrize("argv", ARRANGEMENT_REQUESTS, ids=" ".join)
def test_arrangement_request_makes_no_fraction(argv):
    script = (
        "import contextlib, io\n"
        "import braidlink.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = braidlink.cli.main({argv!r})\n"
        "print(code, 'fractions' in sys.modules, 'decimal' in sys.modules)"
    )
    assert last_line_after(script) == "0 False False"


def test_library_imports_no_fractions_and_converts_to_float_in_one_place():
    # The arrangement carries its quotients as integers; only the SVG's
    # output formatting turns a value into a float.
    library = Path(braidlink.__file__).resolve().parent
    imports, floats = [], []
    for path in sorted(library.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        scopes = {
            id(node): f"{path.stem}.{function.name}"
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            for node in ast.walk(function)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imports += [alias.name for alias in node.names if alias.name == "fractions"]
            elif isinstance(node, ast.ImportFrom) and node.module == "fractions":
                imports.append(node.module)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
            ):
                floats.append(scopes.get(id(node), path.stem))
    assert imports == []
    assert set(floats) == {"svg._svg_coords"}


@pytest.mark.parametrize("name", braidlink.__all__)
def test_export_is_the_object_in_its_home_module(name):
    value = getattr(braidlink, name)
    home = sys.modules[value.__module__]
    assert home.__name__.startswith("braidlink.")
    assert getattr(home, name) is value


def test_exports_are_listed_by_dir():
    assert len(braidlink.__all__) == 18
    assert set(braidlink.__all__) <= set(dir(braidlink))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from braidlink import *", namespace)
    assert {name: namespace[name] for name in braidlink.__all__} == {
        name: getattr(braidlink, name) for name in braidlink.__all__
    }


def test_roadmap_rows_import():
    from braidlink import full_report, parse_braid, reference_braids
    from braidlink.fixtures import reference_braids as stored

    assert reference_braids is stored
    assert full_report(parse_braid("B2 1 1 1")).determinant == 3


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'geometry_of_nothing'"):
        braidlink.geometry_of_nothing
