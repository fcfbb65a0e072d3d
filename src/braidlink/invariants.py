"""Assembled link invariants of a closed braid.

The link determinant is computed along two independent routes, the Goeritz
matrix of the diagram's checkerboard colouring, det G (see goeritz.py), and
the Alexander value at -1 from the reduced Burau representation; both
link_determinant and full_report require them to agree in absolute value and
the normalised Alexander polynomial read backwards to be +-itself.  det G's
sign depends on the diagram: an `invariants` report holds the reduced word's.
"""

from __future__ import annotations

from . import Record
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
    """The determinant routes disagreed or Alexander is not symmetric: a convention bug."""


class InvariantReport(Record):
    __slots__ = (
        "strand_count", "component_count", "exponent_sum", "linking",
        "determinant_goeritz", "determinant_burau", "alexander", "alexander_at",
    )

    @property
    def determinant(self) -> int:
        return abs(self.determinant_goeritz)


def _checked_determinants(
    word: BraidWord, alexander: LaurentPolynomial
) -> tuple[int, int]:
    """Signed (det G, Alexander(-1)); RouteMismatchError unless the two
    routes agree in absolute value and the normalised Alexander polynomial
    read backwards is +-itself."""
    terms = alexander.terms
    if terms[::-1] != terms and terms[::-1] != tuple(-c for c in terms):
        raise RouteMismatchError(f"alexander polynomial {alexander} is not symmetric")
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


def report_json(word: BraidWord, report: InvariantReport) -> str:
    """The report as JSON, laid out as json.dumps(..., indent=2) lays it out;
    its only strings, the schema and the braid text, need no escaping.
    ValueError for an integer past the interpreter's str limit."""
    return "\n".join([
        "{",
        f'  "schema": "{SCHEMA_REPORT}",',
        f'  "word": "{braid_text(word)}",',
        f'  "strand_count": {report.strand_count},',
        f'  "components": {report.component_count},',
        f'  "exponent_sum": {report.exponent_sum},',
        f'  "linking": {_json_rows(report.linking, "  ")},',
        f'  "determinant": {report.determinant},',
        '  "alexander": {',
        f'    "coefficients": {_json_rows(report.alexander.to_pairs(), "    ")},',
        f'    "evaluations": {_json_rows(report.alexander_at, "    ")}',
        "  }",
        "}",
    ])


def _json_rows(rows: tuple[tuple[int, ...], ...], pad: str) -> str:
    """Nonempty integer rows as json.dumps(..., indent=2) writes them at pad."""
    if not rows:
        return "[]"
    inner = pad + "  "
    head, between, tail = f"{inner}[\n{inner}  ", f",\n{inner}  ", f"\n{inner}]"
    listed = ",\n".join([head + between.join(map(str, row)) + tail for row in rows])
    return f"[\n{listed}\n{pad}]"


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
