"""The Goeritz matrix G of a closed braid: |det G| = det(L) for a connected
diagram (L. Goeritz, Math. Z. 1933; C. McA. Gordon and R. A. Litherland,
Invent. Math. 1978).

Column j, between strands j and j + 1, holds one region per letter
sigma_j^(+-1) and columns 0 and n one each; colouring by column parity is a
checkerboard colouring.  G is the weighted Laplacian of the class with
fewer regions, one vertex deleted: sigma_i^s joins the regions before and
after it with weight s when column i is in the class, else the class's
current regions in columns i - 1 and i + 1 with weight -s.  Regions are
numbered as they open along the word, each column's wrap-around region
(before its first letter, after its last) and columns 0 and n last, and the
last is deleted: at any step of the elimination the regions holding
entries are about one per column, so it fills little.
"""

from __future__ import annotations

from .braids import BraidWord
from .matrices import sparse_determinant


def goeritz_determinant(word: BraidWord) -> int:
    """det G, exactly; 0 for a split diagram (a column with no letters)."""
    n = word.strand_count
    left = [0] * (n + 1)  # left[j]: the column-j letters not yet passed
    for e in word.letters:
        left[abs(e)] += 1
    if n >= 2 and not all(left[1:n]):
        return 0
    left[0] = left[n] = 1  # now also the number of regions in each column
    parity = 0 if sum(left[0::2]) <= sum(left[1::2]) else 1
    columns = [j for j in range(1, n) if j % 2 == parity] + [j for j in (0, n) if j % 2 == parity]
    # wrap[j]: class column j's wrap-around region; current[j]: its region
    # at the present word position.
    order = sum(left[j] - 1 for j in columns)  # the regions opened along the word
    wrap = [0] * (n + 1)
    for vertex, j in enumerate(columns, order):
        wrap[j] = vertex
    current = wrap[:]
    last = order + len(columns) - 1  # the deleted vertex
    rows: list[dict[int, int]] = [{} for _ in range(last)]
    order = 0
    for e in word.letters:
        i, s = (e, 1) if e > 0 else (-e, -1)
        if i % 2 == parity:
            a = current[i]
            left[i] -= 1
            if left[i]:
                b = current[i] = order
                order += 1
            else:
                b = current[i] = wrap[i]
        else:
            a, b, s = current[i - 1], current[i + 1], -s
        if a != b:
            for x, y in ((a, b), (b, a)):
                if x != last:
                    rows[x][x] = rows[x].get(x, 0) + s
                    if y != last:
                        rows[x][y] = rows[x].get(y, 0) - s
    return sparse_determinant(rows, 1)
