import functools
import itertools
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidlink import matrices
from braidlink.braids import BraidWord
from braidlink.invariants import full_report
from braidlink.laurent import ONE, ZERO, LaurentPolynomial
from braidlink.matrices import (
    EXPANSION_MAX,
    PACKED_MAX,
    IntegerMatrix,
    _expanded_determinant,
    bareiss_determinant_laurent,
    laurent_determinant,
    sparse_determinant,
)
from braidlink.seifert import seifert_matrix, symmetrized_determinant
from strategies import braid_words
from test_seifert import column_major_seifert, dense_rows


def certified_width(rows):
    """The slot width in bytes that the Hadamard certificate gives for
    sparse rows of polynomials; 0 when it is 0, where a row and the
    determinant are zero."""
    digits = [{j: (p.terms, p.low) for j, p in row.items() if p} for row in rows]
    return matrices._lows_and_width(digits)[1]


def bareiss_determinant_int(rows):
    """Determinant of a square integer matrix given as dense rows, by the
    library's one fraction-free elimination."""
    return sparse_determinant([dict(enumerate(r)) for r in rows], 1)


def laurent_elimination(rows):
    """Determinant of a square Laurent matrix given as dense rows, by the
    elimination over Z[t, 1/t], never at a packed point."""
    return sparse_determinant([dict(enumerate(r)) for r in rows], ONE)


def dense_bareiss(rows, one):
    """Dense fraction-free elimination over the ring with unit one, in the
    given order, every row rescaled at every step: the oracle for the
    sparse, lazily scaled one."""
    n = len(rows)
    if n == 0:
        return one
    a = [list(r) for r in rows]
    negate = False
    prev = one
    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    negate = not negate
                    break
            else:
                return one - one
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return -a[n - 1][n - 1] if negate else a[n - 1][n - 1]


def naive_det(rows):
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def test_small_determinants():
    assert bareiss_determinant_int([]) == 1
    assert bareiss_determinant_int([[7]]) == 7
    assert bareiss_determinant_int([[1, 2], [3, 4]]) == -2
    assert bareiss_determinant_int([[0, 1], [1, 0]]) == -1


def test_determinant_matches_permutation_expansion():
    rng = random.Random(7)
    for n in (2, 3, 4, 5):
        for _ in range(30):
            rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            assert bareiss_determinant_int([r[:] for r in rows]) == naive_det(rows)


def test_determinant_needs_square():
    with pytest.raises(ValueError):
        bareiss_determinant_laurent([[ONE, ONE, ONE], [ONE, ZERO, ONE]])


def test_singular_matrix():
    assert bareiss_determinant_int([[1, 2], [2, 4]]) == 0
    assert bareiss_determinant_int([[0, 0], [1, 1]]) == 0


def test_laurent_determinant():
    t = LaurentPolynomial(1, (1,))
    one = ONE
    rows = [[t, one], [one, t]]
    assert bareiss_determinant_laurent(rows) == LaurentPolynomial(0, (-1, 0, 1))
    assert bareiss_determinant_laurent([[ZERO, one], [one, ZERO]]) == -one
    assert bareiss_determinant_laurent([]) == ONE


def test_laurent_determinant_matches_integer_specialization():
    rng = random.Random(11)
    for n in (2, 3, 4):
        for _ in range(20):
            entries = [
                [
                    LaurentPolynomial(
                        0, [rng.randint(-3, 3) for _ in range(rng.randint(0, 2))]
                    )
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
            det = laurent_elimination(entries)
            for x in (-1, 2):
                ints = [[p.evaluate(x) for p in row] for row in entries]
                assert det.evaluate(x) == bareiss_determinant_int(ints)


def test_integer_matrix_type():
    m = IntegerMatrix(3, ((0, 1, 1), (1, 0, -1), (1, 1, 2)))
    assert m.nrows == 3
    assert m.entries == ((0, 1, 1), (1, 0, -1), (1, 1, 2))
    assert dense_rows(m) == ((0, 1, 0), (-1, 2, 0), (0, 0, 0))
    assert dense_rows(IntegerMatrix(0, ())) == ()


# -- sparse elimination with lazy scaling ------------------------------------


def chain_with_far_row(n, diagonal, far, one=1):
    """Tridiagonal rows 1..n-2 with the given diagonal, row 0 reaching only
    column n-1, and row n-1 holding columns 0, n-2 and n-1, over the ring
    with unit one.  Row n-1 is updated at step 0 and next touched at step
    n-2, so it is rescaled lazily across the n-3 chain pivots in between."""
    rows = [[one - one] * n for _ in range(n)]
    rows[0][0], rows[0][n - 1] = diagonal, far
    for i in range(1, n - 1):
        rows[i][i] = diagonal
        if i + 1 < n - 1:
            rows[i][i + 1] = rows[i + 1][i] = one
    rows[n - 1][0], rows[n - 1][n - 2], rows[n - 1][n - 1] = far, one, diagonal + one
    rows[n - 2][n - 1] = one
    return rows


@pytest.mark.parametrize("n", [3, 4, 8, 20, 40])
@pytest.mark.parametrize("diagonal, far", [(3, 2), (-5, 7), (2, -1), (10**6, 3)])
def test_lazily_scaled_row_touched_many_steps_later(n, diagonal, far):
    rows = chain_with_far_row(n, diagonal, far)
    assert bareiss_determinant_int(rows) == dense_bareiss(rows, 1)
    if n <= 4:
        assert bareiss_determinant_int(rows) == naive_det(rows)


LAURENT_CHAINS = [
    (LaurentPolynomial(0, (2, 1)), LaurentPolynomial(-1, (3,))),
    (LaurentPolynomial(-1, (1, -3, 1)), LaurentPolynomial(0, (1, 0, -1))),
    (LaurentPolynomial(5, (-7,)), LaurentPolynomial(0, (2, -1, 0, 1))),
]


@pytest.mark.parametrize("n", [3, 8, 20])
@pytest.mark.parametrize("diagonal, far", LAURENT_CHAINS)
def test_laurent_row_lazily_scaled_over_many_steps(n, diagonal, far):
    rows = chain_with_far_row(n, diagonal, far, ONE)
    assert laurent_elimination(rows) == dense_bareiss(rows, ONE)


def scaled_chain(n, scale):
    """chain_with_far_row over Z[t, 1/t] with every entry times scale."""
    diagonal, far = LAURENT_CHAINS[1]
    c = LaurentPolynomial(0, (scale,))
    return [[c * p for p in row] for row in chain_with_far_row(n, diagonal, far, ONE)]


@pytest.mark.parametrize(
    "n, scale, width",
    [(3, 1, 1), (6, 1, 2), (12, 1, 4), (3, 40, 4), (6, 40, 8), (3, 10**6, 9), (12, 10**6, 34)],
)
def test_laurent_determinant_on_both_sides_of_the_cutoff(n, scale, width):
    # Above order EXPANSION_MAX widths 1-4 take the packed point and 8 and up
    # do not; up to it every width does.
    assert 4 <= PACKED_MAX < 8
    rows = scaled_chain(n, scale)
    assert certified_width([dict(enumerate(row)) for row in rows]) == width
    assert bareiss_determinant_laurent(rows) == dense_bareiss(rows, ONE)


@pytest.mark.parametrize("n", [2, 5])
def test_laurent_determinant_of_a_zero_row(n):
    # The other entries would not fit the slot a zero certificate suggests.
    rows = scaled_chain(n, 10**30)
    rows[n // 2] = [ZERO] * n
    assert certified_width([dict(enumerate(row)) for row in rows]) == 0
    assert bareiss_determinant_laurent(rows) == ZERO


@pytest.mark.parametrize("n", [2, 5, 8])
def test_laurent_determinant_of_a_zero_column(n, monkeypatch):
    # A zero column is 0 at once, stored zeros in it included, at orders
    # that would expand (2, 5) and eliminate (8), with no row zero.
    monkeypatch.setattr(matrices, "_expanded_determinant", lambda rows: pytest.fail("expanded"))
    monkeypatch.setattr(matrices, "sparse_determinant", lambda rows, one: pytest.fail("eliminated"))
    rows = [dict(enumerate(row)) for row in scaled_chain(n, 10**30)]
    column = n // 2
    for row in rows:
        row.pop(column, None)
    rows[column][column] = ZERO
    assert certified_width(rows) > 0
    assert laurent_determinant(rows) == ZERO


def chain_needing_far_row_swap(n, diagonal, far, one=1):
    """chain_with_far_row with row n-2 holding nothing in its own column,
    so the far row, last changed at step 0, swaps in at step n-2."""
    rows = chain_with_far_row(n, diagonal, far, one)
    zero = one - one
    rows[n - 2] = [zero] * n
    rows[n - 2][n - 3], rows[n - 2][n - 1] = one, far + far
    rows[n - 3][n - 2] = zero
    return rows


def partly_stale_row(n, diagonal, far, one=1):
    """A chain of rows 0..m-1 (m = n // 2 - 1), row m with nothing in its
    own column, and row m+1 holding columns 0 and n-1.  Each chain step
    fills row m+1 one column further right while its column-(n-1) entry
    stays as stored, so that row is partly stale.  At step m it is the
    first holder of column m and swaps in for the zero pivot, and the last
    row, untouched until then, is eliminated against it."""
    zero = one - one
    m = n // 2 - 1
    rows = [[zero] * n for _ in range(n)]
    for i in range(m):
        rows[i][i], rows[i][i + 1] = diagonal, one
    rows[m][m + 1], rows[m][n - 1] = one, far + far
    rows[m + 1][0], rows[m + 1][n - 1] = one, far
    for i in range(m + 2, n - 1):
        rows[i][i - 1], rows[i][i] = one, diagonal
    rows[n - 1][m], rows[n - 1][n - 1] = one, diagonal
    return rows


@pytest.mark.parametrize("n", [4, 9, 25])
def test_lazily_scaled_row_swapped_in_for_a_zero_pivot(n):
    """The row that replaces a zero pivot last changed many steps earlier,
    or, partly stale, changed in some entries and not in another."""
    for build in (chain_needing_far_row_swap, partly_stale_row):
        rows = build(n, 3, 2)
        assert dense_bareiss(rows, 1) != 0
        assert bareiss_determinant_int(rows) == dense_bareiss(rows, 1)
        if n == 4:
            assert bareiss_determinant_int(rows) == naive_det(rows)


@pytest.mark.parametrize("n", [4, 9, 25])
def test_laurent_row_swapped_in_for_a_zero_pivot(n):
    for build in (chain_needing_far_row_swap, partly_stale_row):
        for diagonal, far in LAURENT_CHAINS:
            rows = build(n, diagonal, far, ONE)
            expected = dense_bareiss(rows, ONE)
            assert expected
            assert laurent_elimination(rows) == expected


def laurent_entry(rng):
    """A nonzero Laurent polynomial of up to three terms."""
    while True:
        terms = [0] * 5  # the coefficients of t^-2 .. t^2
        for _ in range(rng.randint(1, 3)):
            exp = rng.randint(-2, 2)
            terms[exp + 2] = rng.randint(-3, 3)
        if p := LaurentPolynomial(-2, terms):
            return p


@pytest.mark.parametrize("n", [2, 5, 12, 25])
def test_laurent_shuffled_triangular_rows(n):
    """The rows of a sparse upper triangular Laurent matrix in shuffled
    order: every step whose row was moved away has a zero pivot and swaps,
    and a row waits lazily scaled until its step.  Without extra entries
    the determinant is the signed product of the diagonal; with entries
    below the diagonal, steps eliminate too and the dense oracle decides."""
    rng = random.Random(f"shuffled:{n}")
    for extra in (0, 1, n):
        rows = [
            [laurent_entry(rng) if j == i or (j > i and rng.random() < 0.25) else ZERO
             for j in range(n)]
            for i in range(n)
        ]
        diagonal = [rows[i][i] for i in range(n)]
        for _ in range(extra):
            i = rng.randrange(1, n)
            rows[i][rng.randrange(i)] = laurent_entry(rng)
        order = rng.sample(range(n), n)
        shuffled = [rows[i] for i in order]
        expected = dense_bareiss(shuffled, ONE)
        if not extra:
            product = functools.reduce(operator.mul, diagonal, ONE)
            inversions = sum(a > b for a, b in itertools.combinations(order, 2))
            assert expected == (-product if inversions % 2 else product)
        assert laurent_elimination(shuffled) == expected


def test_sparse_rows_in_any_order():
    rng = random.Random(3)
    for n in (1, 2, 5, 9):
        for _ in range(40):
            dense = [
                [rng.choice((0, 0, 0, rng.randint(-4, 4))) for _ in range(n)]
                for _ in range(n)
            ]
            sparse = [{j: v for j, v in enumerate(r) if v} for r in dense]
            assert sparse_determinant(sparse, 1) == dense_bareiss(dense, 1)
    assert sparse_determinant([], 1) == 1
    assert sparse_determinant([{0: 0}], 1) == 0


@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=7).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_sparse_elimination_matches_dense_oracle(rows):
    assert bareiss_determinant_int(rows) == dense_bareiss(rows, 1)


def sparse_square(entry):
    """Sparse square matrices of order 0 to 7 with entries drawn from entry,
    most of them absent, so that zero rows and columns occur."""
    return st.integers(min_value=0, max_value=7).flatmap(
        lambda n: st.lists(
            st.dictionaries(st.integers(min_value=0, max_value=n - 1), entry, max_size=n)
            if n else st.just({}),
            min_size=n,
            max_size=n,
        )
    )


@settings(max_examples=300, deadline=None)
@given(sparse_square(st.integers(min_value=-(10**12), max_value=10**12)))
def test_expansion_matches_the_integer_elimination(rows):
    assert _expanded_determinant(rows) == sparse_determinant(rows, 1)


LAURENT_ENTRY = st.builds(
    LaurentPolynomial,
    st.integers(min_value=-6, max_value=6),
    st.lists(st.integers(min_value=-(10**6), max_value=10**6), max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(sparse_square(LAURENT_ENTRY))
def test_laurent_determinant_matches_the_laurent_elimination(rows):
    # Orders up to EXPANSION_MAX expand at the packed point whatever its
    # width; orders 6 and 7 take it up to PACKED_MAX bytes.
    assert EXPANSION_MAX == 5
    assert laurent_determinant(rows) == sparse_determinant(rows, ONE)


def column_major_symmetrized(word):
    v, _, _ = column_major_seifert(word)
    return [[x + y for x, y in zip(row, column)] for row, column in zip(v, zip(*v))]


@settings(max_examples=150)
@given(braid_words(max_strands=9, max_len=40))
def test_sweep_order_determinant_matches_column_major_oracle(w):
    data = seifert_matrix(w)
    expected = 0 if data.split else dense_bareiss(column_major_symmetrized(w), 1)
    assert symmetrized_determinant(data) == expected


@pytest.mark.parametrize(
    "word",
    [
        BraidWord(2, (-1, 1, 1, -1, 1, 1, 1, -1, -1, -1, -1, -1, -1, 1, 1, -1, -1, -1)),
        BraidWord(3, (1, -1, 2, -1, 2, -2, -1, 1, -1, -1, 1, -1, -2, -1, -2, 2, 1, -2, 2, -1)),
        BraidWord(4, (-3, 1, 2, 3, -2, -2, 3, -1, 2, 1, -2)),
        BraidWord(5, (-4, 4, -2, -2, 2, -3, 3, -3, -4, -4, -4, 4, -4, 1, 2, 2)),
        BraidWord(6, (-5, 5, -4, 1, -3, 5, -3, 2, -3, 4, 2, -2, -5, 5, 4)),
    ],
)
def test_mixed_sign_words_force_row_swaps(word):
    """Loops bounded by crossings of both signs have a zero self pairing.
    Each of these words meets zero pivots in the sweep order and swaps rows
    an odd number of times, and its determinant is nonzero, so a lost swap
    sign would show."""
    data = seifert_matrix(word)
    expected = dense_bareiss(column_major_symmetrized(word), 1)
    assert expected != 0
    assert symmetrized_determinant(data) == expected


@pytest.mark.parametrize("n", [2, 3, 10, 31, 60])
def test_wide_mixed_sign_unknots(n):
    """Each generator once, with random signs, in order and shuffled: the
    closure is the unknot, and its Burau matrix B - I is sparse and wide."""
    rng = random.Random(f"unknot:{n}")
    for generators in (range(1, n), rng.sample(range(1, n), n - 1)):
        word = BraidWord(n, tuple(rng.choice((1, -1)) * i for i in generators))
        assert symmetrized_determinant(seifert_matrix(word)) == 1
        report = full_report(word)
        # det G's sign depends on the diagram: -1 on the n = 10 and 60 words
        assert (abs(report.determinant_goeritz), report.determinant_burau) == (1, 1)
        assert report.alexander == ONE
