"""Exact link invariants of closed braids, and the exact line-arrangement
sweep that reconstructs the bundled reference braids.

Each exported name is imported from its submodule on first use (PEP 562),
so ``import braidlink`` alone loads no submodule.  ``Record``, the base of
the submodules' value types, lives here, where each of them finds it
without loading another.
"""

from importlib import import_module

__version__ = "0.1.0"

# Looked up once, not per field: every record a request builds runs the loop.
_set_field = object.__setattr__


class Record:
    """Base of an immutable value type.  A subclass names its fields in
    __slots__, in order, and the constructor binds them to its arguments, by
    position or name; a subclass writes __init__ only to check or normalise
    them, setting each by object.__setattr__.  A record equals only one of
    its type with equal fields, hashes as their tuple, refuses assignment,
    and `replace` rebuilds it through the constructor with fields changed."""

    __slots__ = ()

    def __init__(self, *values, **named):
        names = self.__slots__
        if named or len(values) != len(names):
            values = self._bound(values, named)
        for name, value in zip(names, values):
            _set_field(self, name, value)

    def _bound(self, values: tuple, named: dict) -> tuple:
        """One value per field, in order; TypeError unless each is given once."""
        names, rest = self.__slots__, self.__slots__[len(values):]
        if len(values) + len(named) == len(names) and all(map(named.__contains__, rest)):
            return values + tuple([named[name] for name in rest])
        if len(values) > len(names):
            problem = f"{len(values)} values for {len(names)} fields"
        elif unknown := [name for name in named if name not in names]:
            problem = f"unknown field {', '.join(unknown)}"
        elif twice := [name for name in named if name not in rest]:
            problem = f"field {', '.join(twice)} given twice"
        else:
            problem = f"missing field {', '.join(name for name in rest if name not in named)}"
        raise TypeError(f"{type(self).__name__}({', '.join(names)}): {problem}")

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def replace(self, **changes):
        values = [changes.pop(name, getattr(self, name)) for name in self.__slots__]
        return type(self)(*values, **changes)  # a change left over names no field

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), self._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._fields()))
        return f"{type(self).__qualname__}({fields})"


_EXPORTS = {
    "braids": ("BraidParseError", "BraidWord", "braid_text", "parse_braid"),
    "burau": ("alexander_polynomial",),
    "fixtures": ("reference_braids",),
    "geometry": ("SmoothingChoice", "apply_smoothing", "build_configuration", "project_crossings"),
    "invariants": (
        "InvariantReport", "RouteMismatchError", "full_report", "link_determinant", "report_json",
    ),
    "svg": ("emit_projection_svg",),
    "sweep": ("sweep_full_turn", "sweep_half_turn"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOME.keys())
