"""The library's value types are records (braidlink.Record): immutable, with
field defaults and checks, equal only to a value of their own type, and
updated by `replace`."""

import copy
import pickle

import pytest

from braidlink import Record
from braidlink.braids import BraidWord, StrandComponentMap
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
    "Projection": lambda: Projection("oxy", ("x", "y"), "z", True),
    "ProjectedLine": lambda: ProjectedLine("l0", (3, -1), (-3, 1)),
    "CrossingEvent": lambda: CrossingEvent(
        "finite", ("l0", "l1"), (1, 0), (2, 0, 1), -1, None, "l0"
    ),
    "SmoothingChoice": SmoothingChoice.paper,
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
    assert fields(flipped)[:4] == fields(event)[:4]
    at_infinity = CrossingEvent("at_infinity", ("l0", "l2", "L'"), (0, 1))
    assert fields(at_infinity)[3:] == (None, None, None, None)
    assert at_infinity.over is None
    assert Projection("oxz", ("x", "z"), "y", False).plane(Point3(1, 2, 3)) == (1, 3)
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
