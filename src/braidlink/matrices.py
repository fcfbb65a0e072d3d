"""Exact matrices: arbitrary-precision integer matrices and fraction-free
determinants (Bareiss elimination), for plain integers and for Laurent
polynomial entries.  No floating point anywhere.

The integer elimination works on sparse rows, {column: value} maps of the
nonzero entries, and scales lazily.  After k steps of Bareiss elimination
an entry of a row whose pivot-column entry was zero at every step since
step s is its value after step s times p_k / p_s, where p_k is the k-th
pivot (p_0 = 1); the quotient is exact because both values are minors of
the matrix.  Such a row is therefore left as stored, together with the
step s its values belong to, and rescaled only when a later step needs
it.  A step costs the entries of the rows that hold a nonzero in its
pivot column, not a pass over every remaining row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .laurent import ONE, ZERO, LaurentPolynomial


def bareiss_determinant_int(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    return sparse_determinant_int([{j: v for j, v in enumerate(r) if v} for r in rows])


def sparse_determinant_int(rows: list[dict[int, int]]) -> int:
    """Determinant of the n x n integer matrix whose row i has the entries
    rows[i] ({column: value}, absent columns 0), by fraction-free
    elimination in the given row and column order."""
    n = len(rows)
    rows = [{j: v for j, v in r.items() if v} for r in rows]
    # holders[j]: the rows not yet used as pivot rows with a nonzero in column j
    holders: list[set[int]] = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            holders[j].add(i)
    stored_at = [0] * n  # the step whose values rows[i] holds
    pivots = [1]  # pivots[k]: the divisor of step k
    sign = 1
    for k in range(n):
        below = holders[k]
        if k not in below:
            if not below:
                return 0
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
            sign = -sign
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
    return sign * pivots[n]


def _rescaled(row: dict[int, int], scale: int, stored_scale: int) -> dict[int, int]:
    """The row's values after the step with divisor scale, from those after
    the step with divisor stored_scale (an exact quotient of minors)."""
    if scale == stored_scale:
        return row
    return {j: v * scale // stored_scale for j, v in row.items()}


def bareiss_determinant_laurent(
    rows: list[list[LaurentPolynomial]],
) -> LaurentPolynomial:
    """Determinant over Z[t, 1/t]; Bareiss divisions are exact in the ring."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    if n == 0:
        return ONE
    a = [list(r) for r in rows]
    sign = 1
    prev = ONE
    for k in range(n - 1):
        if a[k][k].is_zero:
            for i in range(k + 1, n):
                if not a[i][k].is_zero:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return ZERO
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = num.exact_div(prev)
        prev = a[k][k]
    result = a[n - 1][n - 1]
    return result if sign == 1 else -result


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
