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

Loops are ordered column-major (by column, then by occurrence), so V is
deterministic.  A column with no letters splits the closed-braid diagram;
the symmetrized determinant of a split closure is 0 regardless of V.

The basis order and the elimination order differ.  V + V^T has at most
six off-diagonal nonzeros per row: a loop pairs with its two neighbours in
its own column and, in each adjacent column, only with the loops that
contain one of its two end crossings.  symmetrized_determinant eliminates
the loops in the order of their first crossing along the word (the same
permutation on rows and columns, so the determinant is unchanged).  In
that order the loops still holding entries at any step are those open at
the sweep position, about one per column, so sparse Bareiss elimination
fills about n - 1 entries per row rather than the m of the column-major
order, where a column's loops reach across the whole word.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .braids import BraidWord
from .matrices import IntegerMatrix, sparse_determinant


@dataclass(frozen=True)
class SeifertData:
    """Seifert matrix with its generator-loop bookkeeping.

    basis_loops[k] = (column, ordinal) of the k-th generator loop; entries
    holds (row, column, value) for each nonzero entry of V in that basis;
    sweep_order lists the basis indices by the word position of each loop's
    first crossing; split is True when some column between occupied strands
    carries no letter, i.e. the closure is a split diagram.
    """

    basis_loops: tuple[tuple[int, int], ...]
    entries: tuple[tuple[int, int, int], ...]
    sweep_order: tuple[int, ...]
    split: bool

    @property
    def matrix(self) -> IntegerMatrix:
        """V as a dense matrix in the column-major basis."""
        m = len(self.basis_loops)
        v = [[0] * m for _ in range(m)]
        for a, b, value in self.entries:
            v[a][b] = value
        return IntegerMatrix.from_rows(v)


def seifert_matrix(word: BraidWord) -> SeifertData:
    n = word.strand_count
    # positions[i], signs[i]: word positions and signs of the column-i letters
    positions: dict[int, list[int]] = {i: [] for i in range(1, n)}
    signs: dict[int, list[int]] = {i: [] for i in range(1, n)}
    for pos, e in enumerate(word.letters):
        positions[abs(e)].append(pos)
        signs[abs(e)].append(1 if e > 0 else -1)
    split = n >= 2 and any(not positions[i] for i in range(1, n))

    # first[i]: basis index of column i's first loop; loop first[i] + j runs
    # from positions[i][j] to positions[i][j + 1].
    first: dict[int, int] = {}
    basis: list[tuple[int, int]] = []
    for i in range(1, n):
        first[i] = len(basis)
        basis.extend((i, j) for j in range(len(positions[i]) - 1))

    entries: list[tuple[int, int, int]] = []
    for i in range(1, n):
        pos, sgn = positions[i], signs[i]
        right = positions.get(i + 1, [])
        for j in range(len(pos) - 1):
            a = first[i] + j
            s1, s2 = sgn[j], sgn[j + 1]
            if s1 == s2:  # the self pairing is 0 when the signs differ
                entries.append((a, a, -s1))
            if j + 2 < len(pos):  # the next loop shares the crossing of sign s2
                entries.append((a, a + 1, 1) if s2 > 0 else (a + 1, a, -1))
            # Loops of column i + 1 whose interval strictly interleaves with
            # (a1, a2): the one open at a1 if it closes inside, and the one
            # open at a2 if it opens inside.
            a1, a2 = pos[j], pos[j + 1]
            inside = bisect_right(right, a1)
            if inside == len(right) or right[inside] > a2:
                continue  # no column-(i + 1) crossing between a1 and a2
            after = bisect_right(right, a2)
            pairs = []
            if inside > 0:  # that loop starts first
                pairs.append((first[i + 1] + inside - 1, 1))
            if after < len(right):  # loop a starts first
                pairs.append((first[i + 1] + after - 1, -1))
            for b, value in pairs:
                entries.append((a, b, value) if i % 2 == 1 else (b, a, value))

    starts = [positions[i][j] for i, j in basis]
    sweep_order = sorted(range(len(basis)), key=starts.__getitem__)
    return SeifertData(tuple(basis), tuple(entries), tuple(sweep_order), split)


def symmetrized_determinant(data: SeifertData) -> int:
    """det(V + V^T), exactly; 0 for split closures (where the band basis
    misses the split unknot factors and a 0x0 matrix would wrongly give 1).

    Eliminates in sweep order; see the module docstring.
    """
    if data.split:
        return 0
    place = [0] * len(data.sweep_order)
    for k, loop in enumerate(data.sweep_order):
        place[loop] = k
    rows: list[dict[int, int]] = [{} for _ in place]
    for a, b, value in data.entries:
        i, j = place[a], place[b]
        rows[i][j] = rows[i].get(j, 0) + value
        rows[j][i] = rows[j].get(i, 0) + value
    return sparse_determinant(rows, 1)
