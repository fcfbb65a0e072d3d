"""Assembled link invariants of a closed braid.

The link determinant is computed along two independent routes, the Goeritz
matrix of the diagram's checkerboard colouring, det G (see goeritz.py), and
the Alexander value at -1 from the reduced Burau representation;
link_determinant insists that they agree and returns the common absolute
value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .braids import (
    BraidWord,
    braid_text,
    exponent_sum,
    linking_matrix,
)
from .burau import alexander_polynomial
from .goeritz import goeritz_determinant
from .laurent import LaurentPolynomial

SCHEMA_REPORT = "braidlink/report/1"


class RouteMismatchError(RuntimeError):
    """The Goeritz and Burau determinant routes disagreed: a convention bug."""


@dataclass(frozen=True)
class InvariantReport:
    strand_count: int
    component_count: int
    exponent_sum: int
    linking: tuple[tuple[int, ...], ...]
    determinant_goeritz: int
    determinant_burau: int
    alexander: LaurentPolynomial
    alexander_at: tuple[tuple[int, int], ...]

    @property
    def determinant(self) -> int:
        return abs(self.determinant_goeritz)


def _checked_determinants(
    word: BraidWord, alexander: LaurentPolynomial
) -> tuple[int, int]:
    """Signed (det G, Alexander(-1)); RouteMismatchError unless the two
    routes agree in absolute value."""
    det_g = goeritz_determinant(word)
    det_b = alexander.evaluate(-1)
    if abs(det_g) != abs(det_b):
        raise RouteMismatchError(
            f"goeritz route gave {det_g}, burau route gave {det_b} "
            f"for {braid_text(word)!r}"
        )
    return det_g, det_b


def link_determinant(word: BraidWord) -> int:
    """|det G| = |Alexander(-1)|, checked along both routes."""
    det_g, _ = _checked_determinants(word, alexander_polynomial(word))
    return abs(det_g)


def full_report(
    word: BraidWord,
    alexander_points: tuple[int, ...] = (-1,),
    alexander: LaurentPolynomial | None = None,
) -> InvariantReport:
    """alexander, when given, is alexander_polynomial(word), computed once."""
    alexander = alexander_polynomial(word) if alexander is None else alexander
    det_g, det_b = _checked_determinants(word, alexander)
    linking = linking_matrix(word)  # one row and column per component
    return InvariantReport(
        strand_count=word.strand_count,
        component_count=len(linking),
        exponent_sum=exponent_sum(word),
        linking=linking,
        determinant_goeritz=det_g,
        determinant_burau=det_b,
        alexander=alexander,
        alexander_at=tuple((point, alexander.evaluate(point)) for point in alexander_points),
    )


def report_json_dict(word: BraidWord, report: InvariantReport) -> dict:
    """Stable-key-order JSON object for the report."""
    return {
        "schema": SCHEMA_REPORT,
        "word": braid_text(word),
        "strand_count": report.strand_count,
        "components": report.component_count,
        "exponent_sum": report.exponent_sum,
        "linking": [list(row) for row in report.linking],
        "determinant": report.determinant,
        "alexander": {
            "coefficients": [list(pair) for pair in report.alexander.to_pairs()],
            "evaluations": [list(pair) for pair in report.alexander_at],
        },
    }


def report_json(word: BraidWord, report: InvariantReport) -> str:
    return json.dumps(report_json_dict(word, report), indent=2)


def report_text(word: BraidWord, report: InvariantReport) -> str:
    lines = [
        f"word:         {braid_text(word)}",
        f"strands:      {report.strand_count}",
        f"components:   {report.component_count}",
        f"exponent sum: {report.exponent_sum}",
        f"linking:      {[list(row) for row in report.linking]}",
        f"determinant:  {report.determinant}",
    ]
    for point, value in report.alexander_at:
        lines.append(f"alexander({point}): {value}")
    return "\n".join(lines)
