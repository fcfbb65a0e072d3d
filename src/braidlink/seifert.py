"""Seifert matrix of a closed braid via the band surface.

With all strands coherently oriented, the Seifert surface of the closure is
n stacked disks (one per strand) joined by one twisted band per letter.  For
each column i the consecutive pairs of its crossings bound the generator
loops of the surface's first homology; V records lk(loop_a, pushoff of
loop_b).

The pairing table below was computed from an explicit exact embedding of
the loops in that surface (stacked disks at heights 1..n, bands with a half
twist of the crossing's handedness, pushoff along the surface normal) and
is validated against the independent Burau route by the test suite:

* loop bounded by crossings of signs s1, s2:  lk(x, x+) = -(s1+s2)/2;
* consecutive loops in one column sharing a crossing of sign s:
  V[earlier][later] = max(s, 0), V[later][earlier] = min(s, 0);
* loops in adjacent columns i, i+1 whose crossing intervals strictly
  interleave: the entry is -1 when the column-i loop starts first and +1
  otherwise, placed at V[x][y] for odd i and at V[y][x] for even i (the
  stacking alternates the surface coorientation from disk to disk);
* all other pairs: 0 (nested or disjoint intervals, distant columns).

Loops are numbered in the order they open along the word, which is the
order symmetrized_determinant eliminates in: V + V^T has at most six
off-diagonal nonzeros per row, and the loops still holding entries at any
step are those open at that word position, about one per column, so sparse
Bareiss elimination fills about n - 1 entries per row rather than the m of
a column-major order, where a column's loops reach across the whole word.
A column with no letters splits the closed-braid diagram; the symmetrized
determinant of a split closure is 0 regardless of V.
"""

from __future__ import annotations

from . import Record
from .braids import BraidWord
from .matrices import IntegerMatrix, sparse_determinant


class SeifertData(Record):
    """Seifert matrix of the band surface.

    order is the number of generator loops, numbered in the order they open
    along the word; entries holds (row, column, value) for each nonzero
    entry of V in that basis; split is True when some column between
    occupied strands carries no letter, i.e. the closure is a split diagram.
    """

    __slots__ = ("order", "entries", "split")

    @property
    def matrix(self) -> IntegerMatrix:
        """V as a matrix."""
        return IntegerMatrix(self.order, self.entries)


def seifert_matrix(word: BraidWord) -> SeifertData:
    n = word.strand_count
    # left[i]: the column-i letters not yet passed; a letter opens a loop
    # only if a later letter of its column closes it.
    left = [0] * (n + 1)
    for e in word.letters:
        left[abs(e)] += 1
    split = n >= 2 and not all(left[1:n])

    # loop[i], sign[i]: column i's open loop (-1 if none) and the sign of
    # the letter that opened it; columns 0 and n stay empty.
    loop = [-1] * (n + 1)
    sign = [0] * (n + 1)
    entries: list[tuple[int, int, int]] = []
    order = 0
    for e in word.letters:
        i, s = (e, 1) if e > 0 else (-e, -1)
        left[i] -= 1
        a = loop[i]
        if a >= 0:  # this letter closes loop a
            if sign[i] == s:  # the self pairing is 0 when the signs differ
                entries.append((a, a, -s))
            if left[i]:  # the loop this letter opens shares its crossing
                entries.append((a, order, 1) if s > 0 else (order, a, -1))
            # An adjacent column's open loop b > a opened inside loop a and
            # closes after it, so their intervals strictly interleave with a
            # first; every such pair is met once, here.  The entry is -1 with
            # column i + 1 (column i starts first) and +1 with column i - 1,
            # and at V[a][b] exactly when i is odd, by the table above.
            for b, value in ((loop[i + 1], -1), (loop[i - 1], 1)):
                if b > a:
                    entries.append((a, b, value) if i % 2 else (b, a, value))
        if left[i]:
            loop[i], sign[i] = order, s
            order += 1
        else:
            loop[i] = -1
    return SeifertData(order, tuple(entries), split)


def symmetrized_determinant(data: SeifertData) -> int:
    """det(V + V^T), exactly; 0 for split closures (where the band basis
    misses the split unknot factors and a 0x0 matrix would wrongly give 1).

    Eliminates in the basis order; see the module docstring.
    """
    if data.split:
        return 0
    rows: list[dict[int, int]] = [{} for _ in range(data.order)]
    for a, b, value in data.entries:
        rows[a][b] = rows[a].get(b, 0) + value
        rows[b][a] = rows[b].get(a, 0) + value
    return sparse_determinant(rows, 1)
