"""The library's value types are records (braidlink.Record): immutable, built
by one constructor from their fields, with checks only where a type writes
its own __init__, equal only to a value of their own type, and updated by
`replace`."""

import ast
import copy
import pickle
from pathlib import Path

import pytest

from braidlink import Record
from braidlink.braids import BraidWord, StrandComponentMap
from braidlink.fixtures import reference_braids
from braidlink.geometry import (
    CrossingEvent,
    Point3,
    ProjectedLine,
    Projection,
    SmoothingChoice,
    SpaceLine,
)
from braidlink.invariants import InvariantReport
from braidlink.laurent import LaurentPolynomial
from braidlink.matrices import IntegerMatrix
from braidlink.seifert import SeifertData

# Each builds a value afresh, from equal but new field objects.
BUILDERS = {
    "BraidWord": lambda: BraidWord(3, (1, -2, 1)),
    "StrandComponentMap": lambda: StrandComponentMap(((1, 3), (2,))),
    "IntegerMatrix": lambda: IntegerMatrix(2, ((0, 0, 1), (1, 1, -1))),
    "InvariantReport": lambda: InvariantReport(
        3, 1, 0, ((0,),), 5, -5, LaurentPolynomial(0, [1, -3, 1]), ((-1, 5), (2, -1)),
    ),
    "SeifertData": lambda: SeifertData(2, ((0, 0, -1), (0, 1, 1)), False),
    "Point3": lambda: Point3(3, -1, -1),
    "SpaceLine": lambda: SpaceLine("l0", Point3(3, -1, -1), Point3(-3, 1, 3)),
    "Projection": lambda: Projection("oxy", ("x", "y"), "z"),
    "ProjectedLine": lambda: ProjectedLine("l0", (3, -1), (-3, 1)),
    "CrossingEvent": lambda: CrossingEvent(("l0", "l1"), (1, 0), (2, 0, 1), -1, None, "l0"),
    "SmoothingChoice": SmoothingChoice.paper,
    "ReferenceBraids": reference_braids,
}


def fields(value):
    return tuple(getattr(value, name) for name in type(value).__slots__)


@pytest.mark.parametrize("name", BUILDERS)
def test_value_type_semantics(name):
    build = BUILDERS[name]
    value, again = build(), build()
    cls = type(value)
    assert cls.__name__ == name and isinstance(value, Record)

    assert value == again and not value != again
    if name == "SmoothingChoice":  # a dict field, unhashable as with a frozen dataclass
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(again)
        assert {value: 1}[again] == 1

    # never equal to the tuple of its fields, nor to a value of another
    # type with the same fields
    twin_type = type(
        f"Twin{name}", (Record,), {"__slots__": cls.__slots__, "__init__": cls.__init__}
    )
    twin = twin_type(*fields(value))
    assert fields(twin) == fields(value)
    for other in (fields(value), list(fields(value)), twin):
        assert value != other and other != value
        assert not value == other and not other == value

    # immutable
    first = cls.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(value, first, getattr(again, first))
    with pytest.raises(AttributeError):
        delattr(value, first)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == again

    # the update, copies and the repr a frozen dataclass had
    assert value.replace() == value and value.replace() is not value
    assert value.replace(**{first: getattr(again, first)}) == value
    with pytest.raises(TypeError):
        value.replace(no_such_field=1)
    assert copy.copy(value) == value and copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value
    assert repr(value) == f"{name}(" + ", ".join(
        f"{k}={v!r}" for k, v in zip(cls.__slots__, fields(value))
    ) + ")"


def test_field_updates_and_defaults():
    event = BUILDERS["CrossingEvent"]()
    flipped = event.replace(sign=1)
    assert (flipped.sign, flipped.over, event.over) == (1, "l0", "l1")
    assert fields(flipped)[:3] == fields(event)[:3]
    # no field has a default: an at-infinity event names its unset fields
    with pytest.raises(TypeError, match="missing field position, sign, double_point"):
        CrossingEvent(("l0", "l2", "L'"), (0, 1))
    at_infinity = CrossingEvent(("l0", "l2", "L'"), (0, 1), None, None, None, None)
    assert at_infinity.over is None
    assert (at_infinity.kind, event.kind) == ("at_infinity", "finite")
    assert Projection("oxz", ("x", "z"), "y").plane(Point3(1, 2, 3)) == (1, 3)
    assert repr(Point3(3, -1, -1)) == "Point3(x=3, y=-1, z=-1)"


def test_checks_raise_as_before():
    with pytest.raises(ValueError, match=r"^letter 0 out of range for 2 strands$"):
        BraidWord(2, (0,))
    with pytest.raises(ValueError, match=r"^letter 2 out of range for 2 strands$"):
        BraidWord(2, (2,))
    with pytest.raises(ValueError, match=r"^letter 1.0 out of range for 3 strands$"):
        BraidWord(3, (1.0,))
    with pytest.raises(ValueError, match=r"^strand count must be at least 1$"):
        BraidWord(0, ())
    with pytest.raises(ValueError, match=r"^letter 3 out of range for 3 strands$"):
        BraidWord(3, (1,)).replace(letters=(1, 3))
    partial = {f"p{k}": 0 for k in range(4)}
    with pytest.raises(
        ValueError, match=r"^smoothing choice missing points: \['q0', 'q1', 'q2', 'q3'\]$"
    ):
        SmoothingChoice(partial)
    with pytest.raises(ValueError, match=r"^invalid resolution 2 at q0$"):
        SmoothingChoice.paper().replace(resolution={**SmoothingChoice.paper().resolution, "q0": 2})


def test_constructor_binds_values_then_names():
    assert fields(Point3(3, -1, 2)) == (3, -1, 2)
    assert Point3(z=2, x=3, y=-1) == Point3(3, -1, 2)
    assert Point3(3, z=2, y=-1) == Point3(3, -1, 2)
    assert fields(Projection("oxz", ("x", "z"), tone_axis="y"))[2] == "y"


@pytest.mark.parametrize("build, problem", [
    (lambda: Point3(3, -1), "missing field z"),
    (lambda: Point3(y=-1), "missing field x, z"),
    (lambda: Point3(3, -1, 2, 0), "4 values for 3 fields"),
    (lambda: Point3(3, -1, 2, w=0), "unknown field w"),
    (lambda: Point3(3, -1, x=3), "field x given twice"),
    (lambda: Point3(1, 2, 3).replace(w=0), "unknown field w"),
], ids=["missing", "missing-two", "extra", "unknown", "twice", "replace-unknown"])
def test_constructor_names_the_type_and_its_fields(build, problem):
    with pytest.raises(TypeError) as refused:
        build()
    assert str(refused.value) == f"Point3(x, y, z): {problem}"


def test_replace_goes_through_the_constructor():
    class Interval(Record):
        """Its ends in order, whichever way they are given."""

        __slots__ = ("low", "high")

        def __init__(self, low, high):
            Record.__init__(self, min(low, high), max(low, high))

    assert fields(Interval(3, 1)) == (1, 3)
    assert fields(Interval(1, 3).replace(low=5)) == (3, 5)
    with pytest.raises(ValueError, match=r"^letter 2 out of range for 2 strands$"):
        BraidWord(3, (2, 1)).replace(strand_count=2)
    assert BraidWord(3, (2, 1)).replace(letters=(1,)) == BraidWord(3, (1,))


# -- one value-type mechanism ---------------------------------------------------

LIBRARY = Path(__file__).resolve().parents[1] / "src" / "braidlink"
OTHER_MECHANISMS = {"NamedTuple", "namedtuple", "dataclass", "dataclasses"}


def copies_its_fields(init):
    """True when each statement of the __init__, after any docstring, only
    passes self and its own parameters on: a call of __setattr__, of
    another __init__, or of a _set helper."""
    params = {arg.arg for arg in init.args.args} | {"self"}
    body = init.body[1:] if ast.get_docstring(init) else init.body
    for statement in body:
        call = statement.value if isinstance(statement, ast.Expr) else None
        if not isinstance(call, ast.Call):
            return False
        func = call.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name not in ("__setattr__", "__init__") and not name.startswith("_set"):
            return False
        if not all(
            isinstance(arg, ast.Constant) or (isinstance(arg, ast.Name) and arg.id in params)
            for arg in call.args
        ):
            return False
    return True


def value_type_faults(tree):
    faults = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and "Record" in {getattr(b, "id", "") for b in node.bases}:
            faults += [
                f"{node.name}.__init__ only copies its fields"
                for member in node.body
                if isinstance(member, ast.FunctionDef) and member.name == "__init__"
                and copies_its_fields(member)
            ]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = {alias.name for alias in node.names} | {getattr(node, "module", None)}
            faults += [f"imports {name}" for name in sorted(names & OTHER_MECHANISMS)]
        elif isinstance(node, ast.Attribute) and node.attr in OTHER_MECHANISMS:
            faults.append(f"reads {node.attr}")
    return faults


def test_every_value_type_is_built_by_the_record_constructor():
    faults = {
        f"{path.name}: {fault}"
        for path in sorted(LIBRARY.glob("*.py"))
        for fault in value_type_faults(ast.parse(path.read_text(), str(path)))
    }
    assert not faults, sorted(faults)


def test_the_guard_sees_a_copying_init_and_a_named_tuple():
    copying = """
class Pair(Record):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        \"\"\"Two fields.\"\"\"
        object.__setattr__(self, "a", a)
        _set_b(self, b)
"""
    checked = copying.replace('_set_b(self, b)', 'object.__setattr__(self, "b", tuple(b))')
    assert value_type_faults(ast.parse(copying)) == ["Pair.__init__ only copies its fields"]
    assert value_type_faults(ast.parse(checked)) == []
    assert value_type_faults(ast.parse("from typing import NamedTuple")) == ["imports NamedTuple"]
    assert value_type_faults(ast.parse("import dataclasses")) == ["imports dataclasses"]
    assert value_type_faults(ast.parse("import collections\ncollections.namedtuple")) == [
        "reads namedtuple"
    ]
