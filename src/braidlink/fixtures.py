"""Bundled reference braids.

Two 9-strand braids arise from the bundled eight-line configuration, one per
distinguished axis line (the vertical axis and the horizontal line at
infinity).  Each is a half-turn word completed by its flip image under the
automorphism sigma_i -> sigma_(9-i), because the scanning line reverses
orientation after half a turn.  The all-positive variants replace the lone
negative crossing of each half-turn by a positive one.
"""

from __future__ import annotations

from . import Record
from .braids import BraidWord, full_turn, parse_braid

AXIS_HALF_TEXT = "B9 1 4 7 -2 3 5 2 4 6 3 5 1 4 7 3 5 2 4 6 3 5 8 7 6 5 4 3 2 1"
INFINITY_HALF_TEXT = "B9 1 4 5 4 8 -2 3 6 2 4 5 4 7 3 6 1 4 5 4 8 3 6 2 4 5 4 7 3 6"


class ReferenceBraids(Record):
    """The braid for the curve with the vertical axis line, the braid for the
    curve with the line at infinity, and their all-positive variants."""

    __slots__ = ("axis", "infinity", "axis_all_positive", "infinity_all_positive")


def _all_positive(word: BraidWord) -> BraidWord:
    return BraidWord(word.strand_count, tuple(abs(e) for e in word.letters))


def axis_half_braid() -> BraidWord:
    return parse_braid(AXIS_HALF_TEXT)


def infinity_half_braid() -> BraidWord:
    return parse_braid(INFINITY_HALF_TEXT)


def reference_braids() -> ReferenceBraids:
    axis = full_turn(axis_half_braid())
    infinity = full_turn(infinity_half_braid())
    return ReferenceBraids(
        axis=axis,
        infinity=infinity,
        axis_all_positive=_all_positive(axis),
        infinity_all_positive=_all_positive(infinity),
    )
