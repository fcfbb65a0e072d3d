"""Exact matrices: an immutable integer matrix type and the one
fraction-free determinant (Bareiss elimination), over Z and over
Z[t, 1/t].  No floating point anywhere.

The elimination works on sparse rows, {column: value} maps of the nonzero
entries, and scales lazily.  After k steps an entry of a row whose
pivot-column entry was zero at every step since step s is its value after
step s times p_k / p_s, where p_k is the k-th pivot (p_0 = 1).  Both
values are minors of the matrix, so this rescale, like every Bareiss
quotient, is exact in any integral domain (E. H. Bareiss, Math. Comp.
1968): // is floor division with no remainder in Z and the checked exact
division in Z[t, 1/t].  Such a row is left as stored, with the step its
values belong to, and rescaled only when a later step needs it, so a step
costs only the rows that hold a nonzero in its pivot column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, TypeVar

from .laurent import ONE, LaurentPolynomial

R = TypeVar("R", int, LaurentPolynomial)


def bareiss_determinant_laurent(
    rows: Sequence[Sequence[LaurentPolynomial]],
) -> LaurentPolynomial:
    """Determinant of a square matrix over Z[t, 1/t], given as dense rows,
    by fraction-free elimination."""
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix is not square")
    return sparse_determinant([dict(enumerate(r)) for r in rows], ONE)


def sparse_determinant(rows: list[dict[int, R]], one: R) -> R:
    """Determinant of the n x n matrix whose row i has the entries rows[i]
    ({column: value}, absent columns zero) over the ring with unit one, by
    fraction-free elimination in the given row and column order."""
    n = len(rows)
    rows = [{j: v for j, v in r.items() if v} for r in rows]
    # holders[j]: the rows not yet used as pivot rows with a nonzero in column j
    holders: list[set[int]] = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            holders[j].add(i)
    stored_at = [0] * n  # the step whose values rows[i] holds
    pivots = [one]  # pivots[k]: the divisor of step k
    negate = False
    for k in range(n):
        below = holders[k]
        if k not in below:
            if not below:
                return one - one
            i = min(below)
            for j in rows[k]:
                holders[j].discard(k)
            for j in rows[i]:
                holders[j].discard(i)
            rows[k], rows[i] = rows[i], rows[k]
            stored_at[k], stored_at[i] = stored_at[i], stored_at[k]
            for j in rows[k]:
                holders[j].add(k)
            for j in rows[i]:
                holders[j].add(i)
            negate = not negate
        prev = pivots[k]
        pivot_row = _rescaled(rows[k], prev, pivots[stored_at[k]])
        pivot = pivot_row.pop(k)
        for j in pivot_row:
            holders[j].discard(k)
        below.discard(k)
        for i in below:
            current = _rescaled(rows[i], prev, pivots[stored_at[i]])
            factor = current[k]
            row = {j: v * pivot for j, v in current.items() if j != k}
            # Only pivot-row columns can gain or lose an entry.
            for j, v in pivot_row.items():
                if j in row:
                    w = row[j] - factor * v
                    if w:
                        row[j] = w
                    else:
                        del row[j]
                        holders[j].discard(i)
                else:
                    row[j] = -factor * v
                    holders[j].add(i)
            rows[i] = {j: v // prev for j, v in row.items()}
            stored_at[i] = k + 1
        pivots.append(pivot)
    return -pivots[n] if negate else pivots[n]


def _rescaled(row: dict[int, R], scale: R, stored_scale: R) -> dict[int, R]:
    """The row's values after the step with divisor scale, from those after
    the step with divisor stored_scale (an exact quotient of minors)."""
    if scale == stored_scale:
        return row
    return {j: v * scale // stored_scale for j, v in row.items()}


@dataclass(frozen=True)
class IntegerMatrix:
    """Immutable exact integer matrix."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        width = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != width:
                raise ValueError("ragged rows")
            for v in r:
                if not isinstance(v, int):
                    raise TypeError("entries must be int")

    @staticmethod
    def from_rows(rows) -> "IntegerMatrix":
        return IntegerMatrix(tuple(tuple(int(v) for v in r) for r in rows))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0
