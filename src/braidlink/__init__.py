"""Exact link invariants of closed braids, and the exact line-arrangement
sweep that reconstructs the bundled reference braids."""

from .braids import BraidParseError, BraidWord, braid_text, parse_braid
from .burau import alexander_polynomial
from .fixtures import reference_braids
from .geometry import (
    SmoothingChoice,
    apply_smoothing,
    build_configuration,
    project_crossings,
)
from .invariants import (
    InvariantReport,
    RouteMismatchError,
    full_report,
    link_determinant,
    report_json,
)
from .svg import emit_projection_svg
from .sweep import sweep_full_turn, sweep_half_turn

__version__ = "0.1.0"

__all__ = [
    "BraidParseError",
    "BraidWord",
    "InvariantReport",
    "RouteMismatchError",
    "SmoothingChoice",
    "alexander_polynomial",
    "apply_smoothing",
    "braid_text",
    "build_configuration",
    "emit_projection_svg",
    "full_report",
    "link_determinant",
    "parse_braid",
    "project_crossings",
    "reference_braids",
    "report_json",
    "sweep_full_turn",
    "sweep_half_turn",
]
