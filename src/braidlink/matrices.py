"""Exact matrices: an immutable integer matrix type and the one
fraction-free determinant (Bareiss elimination), over Z and over
Z[t, 1/t].  No floating point anywhere.

The elimination works on sparse rows, {column: value} maps of the nonzero
entries, and scales lazily, entry by entry.  With p_0 = 1 and p_(k+1) the
pivot of step k, step k sets an entry below the pivot row to (a_ij
p_(k+1) - a_ik a_kj) / p_k, just a_ij p_(k+1) / p_k where a_ik or a_kj is
zero.  So each entry keeps the step s its value belongs to, and a step k
that reads it (in the pivot row or column, or in a pivot-row column)
rescales it by p_k / p_s.  The result is an entry of the Bareiss matrix, a
minor of the input, so this division, like every Bareiss quotient, is
exact in any integral domain (E. H. Bareiss, Math. Comp. 1968): // is floor
division with no remainder in Z and the checked exact division in
Z[t, 1/t].  A step touches only the pivot-row columns of the rows below.
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
    # rows[i][j] is (value, s): the entry's value after step s.
    rows = [{j: (v, 0) for j, v in r.items() if v} for r in rows]
    # holders[j]: the rows not yet used as pivot rows with a nonzero in column j
    holders: list[set[int]] = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            holders[j].add(i)
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
            for j in rows[k]:
                holders[j].add(k)
            for j in rows[i]:
                holders[j].add(i)
            negate = not negate
        prev = pivots[k]
        pivot_row = {j: v if s == k else v * prev // pivots[s] for j, (v, s) in rows[k].items()}
        pivot = pivot_row.pop(k)
        for j in pivot_row:
            holders[j].discard(k)
        below.discard(k)
        for i in below:
            row = rows[i]
            factor, s = row.pop(k)
            minus = -factor if s == k else -factor * prev // pivots[s]
            # Only pivot-row columns change; the others stay as stored.
            for j, v in pivot_row.items():
                entry = row.get(j)
                if entry is None:
                    row[j] = (minus * v // prev, k + 1)
                    holders[j].add(i)
                    continue
                w, s = entry
                if s != k:
                    w = w * prev // pivots[s]
                w = (w * pivot + minus * v) // prev
                if w:
                    row[j] = (w, k + 1)
                else:
                    del row[j]
                    holders[j].discard(i)
        pivots.append(pivot)
    return -pivots[n] if negate else pivots[n]


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

    @property
    def nrows(self) -> int:
        return len(self.rows)
