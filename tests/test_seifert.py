import random
from bisect import bisect_right

from hypothesis import given, settings

from braidlink.braids import BraidWord
from braidlink.burau import alexander_polynomial, determinant_from_burau
from braidlink.laurent import ONE, ZERO, LaurentPolynomial
from braidlink.matrices import sparse_determinant
from braidlink.seifert import seifert_matrix, symmetrized_determinant
from strategies import braid_words, oracle_words


def column_major_seifert(word):
    """The column-major construction, the oracle for seifert_matrix.

    Returns dense V with the loops ordered by column, then by occurrence,
    found by bisection over each column's crossing positions; the word
    position of each loop's first crossing; and the split flag."""
    n = word.strand_count
    # positions[i], signs[i]: word positions and signs of the column-i letters
    positions = {i: [] for i in range(1, n)}
    signs = {i: [] for i in range(1, n)}
    for pos, e in enumerate(word.letters):
        positions[abs(e)].append(pos)
        signs[abs(e)].append(1 if e > 0 else -1)
    split = n >= 2 and any(not positions[i] for i in range(1, n))

    # first[i]: index of column i's first loop; loop first[i] + j runs from
    # positions[i][j] to positions[i][j + 1].
    first = {}
    starts = []
    for i in range(1, n):
        first[i] = len(starts)
        starts.extend(positions[i][:-1])

    v = [[0] * len(starts) for _ in starts]
    for i in range(1, n):
        pos, sgn = positions[i], signs[i]
        right = positions.get(i + 1, [])
        for j in range(len(pos) - 1):
            a = first[i] + j
            s1, s2 = sgn[j], sgn[j + 1]
            if s1 == s2:  # the self pairing is 0 when the signs differ
                v[a][a] = -s1
            if j + 2 < len(pos):  # the next loop shares the crossing of sign s2
                if s2 > 0:
                    v[a][a + 1] = 1
                else:
                    v[a + 1][a] = -1
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
                if i % 2 == 1:
                    v[a][b] = value
                else:
                    v[b][a] = value
    return v, starts, split


def first_crossing_oracle(word):
    """The oracle's V with rows and columns in the order of each loop's
    first crossing along the word, and its split flag."""
    v, starts, split = column_major_seifert(word)
    order = sorted(range(len(starts)), key=starts.__getitem__)
    return tuple(tuple(v[a][b] for b in order) for a in order), split


def dense_rows(matrix):
    """An IntegerMatrix as dense rows: the oracle view of its entries."""
    dense = [[0] * matrix.nrows for _ in range(matrix.nrows)]
    for i, j, value in matrix.entries:
        dense[i][j] = value
    return tuple(map(tuple, dense))


def seifert_alexander_rows(data):
    """Rows of V - t*V^T as Laurent polynomials (the Seifert route to the
    Alexander polynomial, the oracle the Burau route is checked against)."""
    v = dense_rows(data.matrix)
    m = len(v)
    return [
        [LaurentPolynomial(0, (v[i][j], -v[j][i])) for j in range(m)]
        for i in range(m)
    ]


def normalized(p):
    p = p.shifted(-p.low)
    return -p if p and p.terms[-1] < 0 else p


def seifert_route_polynomial(word):
    data = seifert_matrix(word)
    if data.split:
        return ZERO
    # by the Laurent elimination, never the packed point the Burau route may take
    rows = [dict(enumerate(row)) for row in seifert_alexander_rows(data)]
    return normalized(sparse_determinant(rows, ONE))


# -- golden matrices -----------------------------------------------------------

def test_trefoil_matrix():
    data = seifert_matrix(BraidWord(2, (1, 1, 1)))
    assert dense_rows(data.matrix) == ((-1, 1), (0, -1))
    assert data.order == 2
    assert not data.split
    assert abs(symmetrized_determinant(data)) == 3


def test_figure_eight_matrix():
    data = seifert_matrix(BraidWord(3, (1, -2, 1, -2)))
    assert dense_rows(data.matrix) == ((-1, -1), (0, 1))
    assert abs(symmetrized_determinant(data)) == 5


def test_hopf_and_unknots():
    assert abs(symmetrized_determinant(seifert_matrix(BraidWord(2, (1, 1))))) == 2
    assert abs(symmetrized_determinant(seifert_matrix(BraidWord(1, ())))) == 1
    assert abs(symmetrized_determinant(seifert_matrix(BraidWord(2, (1,))))) == 1


def test_split_detection():
    unlink = seifert_matrix(BraidWord(2, ()))
    assert unlink.split
    assert symmetrized_determinant(unlink) == 0
    # trefoil plus a distant unknot: column 2 empty
    data = seifert_matrix(BraidWord(3, (1, 1, 1)))
    assert data.split
    assert symmetrized_determinant(data) == 0
    assert not seifert_matrix(BraidWord(1, ())).split


def test_loop_count_and_order():
    data = seifert_matrix(BraidWord(3, (2, 1, 2, 1, 1)))
    # column 1 has 3 letters (2 loops, opened at positions 1 and 3) and
    # column 2 has 2 (1 loop, opened at position 0), so the column-2 loop
    # comes first
    assert data.order == 3
    assert dense_rows(data.matrix) == ((-1, 0, 0), (1, -1, 1), (0, 0, -1))


def test_mixed_sign_loop_has_zero_self_pairing():
    data = seifert_matrix(BraidWord(2, (1, -1, 1)))
    v = dense_rows(data.matrix)
    assert v[0][0] == 0
    assert v[1][1] == 0


@settings(deadline=None, max_examples=200)
@given(oracle_words(max_strands=9, max_len=60))
def test_one_pass_matches_column_major_oracle(drawn):
    w, kind = drawn
    data = seifert_matrix(w)
    assert (dense_rows(data.matrix), data.split) == first_crossing_oracle(w)
    if kind == "split" and w.strand_count > 2:
        assert data.split


# -- dual-route agreement --------------------------------------------------------

@settings(max_examples=150)
@given(braid_words())
def test_symmetrized_determinant_matches_burau(w):
    assert abs(symmetrized_determinant(seifert_matrix(w))) == abs(
        determinant_from_burau(w)
    )


@settings(max_examples=80)
@given(braid_words(max_strands=5, max_len=14))
def test_seifert_polynomial_matches_burau(w):
    assert seifert_route_polynomial(w) == alexander_polynomial(w)


def test_dual_route_agreement_seeded_corpus():
    rng = random.Random(424242)
    for _ in range(800):
        n = rng.randint(2, 6)
        k = rng.randint(0, 20)
        w = BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(k)))
        assert abs(symmetrized_determinant(seifert_matrix(w))) == abs(
            determinant_from_burau(w)
        )


def test_reference_values():
    from braidlink.fixtures import reference_braids

    braids = reference_braids()
    assert abs(symmetrized_determinant(seifert_matrix(braids.axis))) == 64
    assert abs(symmetrized_determinant(seifert_matrix(braids.infinity))) == 0
