"""Exact link invariants of closed braids, and the exact line-arrangement
sweep that reconstructs the bundled reference braids.

Each exported name is imported from its submodule on first use (PEP 562),
so ``import braidlink`` alone loads no submodule.  ``Record``, the base of
the submodules' value types, lives here, where each of them finds it
without loading another.
"""

from importlib import import_module

__version__ = "0.1.0"


class Record:
    """Base of an immutable value type.  A subclass names its fields in
    __slots__, in order, and its __init__ sets each by object.__setattr__,
    after any check.  A record equals only a record of the same type with
    equal fields, hashes as the tuple of its fields, refuses assignment,
    and `replace` builds one with some fields changed, through __init__."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def replace(self, **changes):
        for name in self.__slots__:
            if name not in changes:
                changes[name] = getattr(self, name)
        return type(self)(**changes)

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
