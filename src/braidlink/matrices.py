"""Exact matrices: a sparse integer matrix type and the determinant over Z
and over Z[t, 1/t].  No floating point anywhere.

sparse_determinant is the one fraction-free (Bareiss) elimination, on sparse
rows, {column: value} maps of the nonzero entries, scaled lazily, entry by
entry.  With p_0 = 1 and p_(k+1) the pivot of step k, step k sets an entry
below the pivot row to (a_ij p_(k+1) - a_ik a_kj) / p_k, just a_ij p_(k+1) /
p_k where a_ik or a_kj is zero.  So each entry keeps the step s its value
belongs to, and a step k that reads it (in the pivot row or column, or in a
pivot-row column) rescales it by p_k / p_s.  The result is an entry of the
Bareiss matrix, a minor of the input, so this division, like every Bareiss
quotient, is exact in any integral domain (E. H. Bareiss, Math. Comp. 1968):
// is floor division with no remainder in Z and the checked exact division
in Z[t, 1/t].  A step touches only the pivot-row columns of the rows below.

laurent_determinant, over Z[t, 1/t], uses one packed point where a
certificate allows.  On |t| = 1 an entry has |a_ij(t)| <= ||a_ij||_1, the sum
of its |coefficients|, which bounds each of them, so by Hadamard's
inequality every coefficient of the determinant is at most sqrt(S), S =
prod_i sum_j ||a_ij||_1**2.  With width the slot_width of isqrt(S) + 1, each
column is divided by its least power of t, every entry is packed at t =
2**(8*width), and sparse_determinant over Z gives one integer that reads
back as the determinant: evaluation is a ring map, so the integer Bareiss
quotients are exact.  Its minors are about as wide as the slot times the
span of the determinant, so past PACKED_MAX bytes the rows are eliminated
over Z[t, 1/t] instead.  A zero row makes S = 0 and the determinant 0 at
once: the other entries need not fit a one-byte slot, so nothing is packed.
A zero column, a column with no nonzero entry, gives 0 at once too.

Up to order EXPANSION_MAX the packed point is taken at any certified width,
by an expansion over Z memoised on column subsets: m 2**(m-1) products for
order m, no more than an elimination's m**3, and no division (W. M. Gentleman
and S. C. Johnson, ACM TOMS 2, 1976).
"""

from __future__ import annotations

from math import isqrt
from typing import Sequence, TypeVar

from . import Record
from .laurent import ONE, ZERO, LaurentPolynomial, kronecker_pack, kronecker_unpack, slot_width

R = TypeVar("R", int, LaurentPolynomial)

# Up to 4 bytes the packed point won on the 9-strand words of 20-58 letters
# (3-4x) and lost at most 0.4 ms (split closures on 22-29 strands); at 8 bytes
# the unknots on 80 and 120 strands ran 1.5x and 2.2x slower, and from 12
# bytes words ran up to 6.6x slower (n=16, L=200; CPython 3.11).
PACKED_MAX = 4
# The largest order expanded: at order 6 the expansion, whose operands carry
# the loose certified width, lost to the Laurent elimination on most random
# signed words of 128-512 letters (up to 1.7x), and at order 5 won on 23 of 24.
# Both were measured on B - I of the whole word, before burau.py took the
# halves form Y - X^-1, whose certificate is about half as wide, up to this
# order.
EXPANSION_MAX = 5


def bareiss_determinant_laurent(rows: Sequence[Sequence[LaurentPolynomial]]) -> LaurentPolynomial:
    """laurent_determinant of a square matrix given as dense rows."""
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix is not square")
    return laurent_determinant([dict(enumerate(r)) for r in rows])


def _certified_width(rows: list[dict[int, LaurentPolynomial]]) -> int:
    """The slot width in bytes that the certificate S gives (see above); 0
    when S = 0, where a row and the determinant are zero."""
    certificate = 1
    for row in rows:
        certificate *= sum(sum(map(abs, p.terms)) ** 2 for p in row.values())
    return slot_width(isqrt(certificate) + 1) if certificate else 0


def laurent_determinant(rows: list[dict[int, LaurentPolynomial]]) -> LaurentPolynomial:
    """Determinant of the n x n matrix over Z[t, 1/t] whose row i has the
    entries rows[i] ({column: value}, absent columns zero)."""
    # low[j]: the least exponent in column j, for each column with a
    # nonzero entry.  A stored zero is no entry: dense rows, such as
    # bareiss_determinant_laurent's, store every zero.
    low: dict[int, int] = {}
    for row in rows:
        for j, p in row.items():
            if p:
                low[j] = min(low.get(j, p.low), p.low)
    if len(low) < len(rows):  # a zero column
        return ZERO
    width = _certified_width(rows)
    if not width:  # a zero row
        return ZERO
    small = len(rows) <= EXPANSION_MAX
    if width > PACKED_MAX and not small:
        return sparse_determinant(rows, ONE)
    # Column j is divided by t**low[j], so every entry is a polynomial and
    # the determinant is t**sum(low) times theirs.
    w = 8 * width
    packed = [
        {j: kronecker_pack(p.terms, width) << (p.low - low[j]) * w for j, p in row.items() if p}
        for row in rows
    ]
    det = _expanded_determinant(packed) if small else sparse_determinant(packed, 1)
    return kronecker_unpack(det, width, sum(low.values()))


def _expanded_determinant(rows: list[dict[int, int]]) -> int:
    """Determinant of the integer matrix whose row i has the entries rows[i]
    ({column: value}, absent columns zero), by expansion along the rows:
    minors[S] is the minor of the first k rows on the column set S (a bit
    mask), and row k adds column j with sign (-1)**#{s in S : s > j}."""
    minors = {0: 1}
    for row in rows:
        grown: dict[int, int] = {}
        for columns, minor in minors.items():
            for j, v in row.items():
                if not columns >> j & 1:
                    term = -v * minor if (columns >> j).bit_count() & 1 else v * minor
                    key = columns | 1 << j
                    grown[key] = grown.get(key, 0) + term
        minors = grown
    return minors.get((1 << len(rows)) - 1, 0)


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


class IntegerMatrix(Record):
    """Immutable square integer matrix: its order and nonzero entries (row, column, value)."""

    __slots__ = ("nrows", "entries")
