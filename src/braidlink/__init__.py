"""Exact link invariants of closed braids, and the exact line-arrangement
sweep that reconstructs the bundled reference braids.

Each exported name is imported from its submodule on first use (PEP 562),
so ``import braidlink`` alone loads no submodule.
"""

from importlib import import_module

__version__ = "0.1.0"

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
