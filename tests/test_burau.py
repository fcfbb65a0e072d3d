import tracemalloc
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from braidlink import matrices
from braidlink.braids import (
    BraidWord,
    concat,
    exponent_sum,
    invert,
    linking_matrix,
    parse_braid,
)
from braidlink.burau import (
    _cut,
    _difference_rows,
    alexander_polynomial,
    burau_reduced,
    determinant_from_burau,
)
from braidlink.fixtures import reference_braids
from braidlink.laurent import ONE, ZERO, LaurentPolynomial, geometric_sum
from braidlink.matrices import (
    EXPANSION_MAX,
    PACKED_MAX,
    _certified_width,
    laurent_determinant,
    sparse_determinant,
)
from strategies import braid_words, closure_words, oracle_words
from test_matrices import dense_bareiss


def burau_multiply(a, b):
    """Matrix product over Laurent polynomials: the oracle for the
    representation property."""
    size = len(a)
    out = []
    for i in range(size):
        row = []
        for j in range(size):
            acc = ZERO
            for k in range(size):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def dense_burau(word):
    """Dense product of the reduced Burau generator matrices, one list per
    row with every zero stored: the oracle for burau_reduced."""
    n = word.strand_count
    if n < 2:
        raise ValueError("reduced Burau needs n >= 2")
    size = n - 1
    m = [[ONE if i == j else ZERO for j in range(size)] for i in range(size)]
    for e in word.letters:
        r = abs(e) - 1
        # Right-multiplying by a generator only rewrites column r:
        # sigma_i gives t*(left - mid) + right, its inverse left + (right - mid)/t.
        for row in m:
            left = row[r - 1] if r > 0 else ZERO
            right = row[r + 1] if r + 1 < size else ZERO
            if e > 0:
                row[r] = (left - row[r]).shifted(1) + right
            else:
                row[r] = left + (right - row[r]).shifted(-1)
    return tuple(tuple(row) for row in m)


@st.composite
def boundary_words(draw):
    """Words on 2 to 6 strands holding the first and the last generator
    (the product's boundary columns) and at least one inverse letter."""
    n = draw(st.integers(min_value=2, max_value=6))
    letter = st.integers(min_value=1, max_value=n - 1).flatmap(
        lambda i: st.sampled_from((i, -i))
    )
    forced = [
        draw(st.sampled_from((1, -1))),
        draw(st.sampled_from((n - 1, 1 - n))),
        -draw(st.integers(min_value=1, max_value=n - 1)),
    ]
    extra = draw(st.lists(letter, max_size=12))
    return BraidWord(n, tuple(draw(st.permutations(forced + extra))))


@given(boundary_words())
def test_sparse_product_matches_dense_oracle(w):
    assert burau_reduced(w) == dense_burau(w)


@settings(deadline=None)
@given(braid_words(max_strands=8, max_len=60))
def test_packed_product_matches_dense_oracle_on_long_words(w):
    assert burau_reduced(w) == dense_burau(w)


@pytest.mark.parametrize(
    "n, period, repeats, bits",
    [(3, (1, -2), 60, 79), (4, (1, -2, 3), 80, 148)],
    ids=["B3-(1 -2)^60", "B4-(1 -2 3)^80"],
)
def test_packed_product_past_eight_byte_slots(n, period, repeats, bits):
    # pseudo-Anosov words: their coefficients outgrow a 64-bit slot
    w = BraidWord(n, period * repeats)
    m = burau_reduced(w)
    assert m == dense_burau(w)
    assert max(abs(c).bit_length() for row in m for p in row for c in p.terms) == bits


@pytest.mark.parametrize("letters", [(1,), (1, -999)], ids=["first", "first-and-last"])
def test_alexander_memory_follows_the_word(letters):
    # a dense 999 x 999 product peaks near 66 MB; sparse rows need under 1 MB
    tracemalloc.start()
    try:
        p = alexander_polynomial(BraidWord(1000, letters))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p == ZERO
    assert peak < 4_000_000


def test_identity_word_gives_identity_matrix():
    m = burau_reduced(BraidWord(4, ()))
    for i in range(3):
        for j in range(3):
            assert m[i][j] == (ONE if i == j else ZERO)


def test_one_strand_rejected():
    with pytest.raises(ValueError):
        burau_reduced(BraidWord(1, ()))


def test_braid_relation():
    assert burau_reduced(BraidWord(3, (1, 2, 1))) == burau_reduced(BraidWord(3, (2, 1, 2)))


def test_far_commutation():
    assert burau_reduced(BraidWord(4, (1, 3))) == burau_reduced(BraidWord(4, (3, 1)))


def test_generator_inverse():
    m = burau_reduced(BraidWord(4, (2, -2)))
    assert m == burau_reduced(BraidWord(4, ()))


@given(braid_words(max_strands=5, max_len=10), braid_words(max_strands=5, max_len=10))
def test_representation_property(a, b):
    if a.strand_count != b.strand_count:
        return
    assert burau_reduced(concat(a, b)) == burau_multiply(burau_reduced(a), burau_reduced(b))


@given(braid_words(max_strands=5, max_len=12))
def test_inverse_word_gives_inverse_matrix(w):
    product = burau_multiply(burau_reduced(w), burau_reduced(invert(w)))
    assert product == burau_reduced(BraidWord(w.strand_count, ()))


# -- Alexander polynomial ---------------------------------------------------

def test_unknot_and_one_strand():
    assert alexander_polynomial(BraidWord(1, ())) == ONE
    assert alexander_polynomial(BraidWord(2, (1,))) == ONE


def test_trefoil_polynomial():
    assert alexander_polynomial(BraidWord(2, (1, 1, 1))) == LaurentPolynomial(0, (1, -1, 1))


def test_figure_eight_polynomial():
    assert alexander_polynomial(BraidWord(3, (1, -2, 1, -2))) == LaurentPolynomial(0, (1, -3, 1))


def test_hopf_link_value():
    assert abs(alexander_polynomial(BraidWord(2, (1, 1))).evaluate(-1)) == 2


def test_split_closures_vanish():
    assert alexander_polynomial(BraidWord(2, ())) == ZERO
    assert alexander_polynomial(BraidWord(3, (1, 1, 1))) == ZERO
    assert determinant_from_burau(BraidWord(3, (1,))) == 0
    # B - I has a zero row, so S = 0, and other entries have coefficients
    # up to 238, beyond the one-byte slot isqrt(0) + 1 would give
    assert alexander_polynomial(BraidWord(5, (1, -2) * 8)) == ZERO


@pytest.mark.parametrize("text, zero_row", [("B4 1 1 3 -3 1", True), ("B4 1 1 3 3 1", False)])
def test_split_word_is_zero_before_any_determinant(text, zero_row, monkeypatch):
    # Both words lack sigma_2, so column 1 of Y and of X^-1 is the
    # identity's, and the route's Y - X^-1 (X = 1 1) has no entry there.
    # In the first, 3 -3 also leaves row 2 of Y that of the identity.
    monkeypatch.setattr(matrices, "_expanded_determinant", lambda rows: pytest.fail("expanded"))
    monkeypatch.setattr(matrices, "sparse_determinant", lambda rows, one: pytest.fail("eliminated"))
    word = parse_braid(text)
    rows = _difference_rows(word, _cut(word))
    assert _cut(word) == 2 and not any(1 in row for row in rows)
    assert (_certified_width(rows) == 0) == zero_row
    assert alexander_polynomial(word) == ZERO


@given(braid_words(max_strands=5, max_len=14))
def test_alexander_symmetry(w):
    p = alexander_polynomial(w)
    if not p:
        return
    assert p.low == 0
    assert p.terms[-1] > 0
    reversed_p = LaurentPolynomial(0, p.terms[::-1])
    assert reversed_p == p or reversed_p == -p


def shifted_determinant(word):
    """det(B - I) from the dense Burau product, as the benchmark's replay takes it."""
    rows = [
        {j: p - ONE if i == j else p for j, p in enumerate(row)}
        for i, row in enumerate(burau_reduced(word))
    ]
    return laurent_determinant(rows)


@settings(deadline=None, max_examples=150)
@given(closure_words())
def test_burau_determinant_is_centred_at_half_the_exponent_sum(drawn):
    """det(B - I) = t**k * (1 + ... + t**(n-1)) * Delta with Delta symmetric
    up to sign, and its exponents satisfy low + high = e, the exponent sum:
    the centre is e/2.  A split closure, or a split link, gives zero."""
    w, kind = drawn
    if w.strand_count < 2:
        return
    det = shifted_determinant(w)
    if kind in ("split", "empty"):
        assert det == ZERO
    if not det:
        return
    pairs = det.to_pairs()
    assert pairs[0][0] + pairs[-1][0] == exponent_sum(w)
    terms = det.exact_div(geometric_sum(w.strand_count)).terms
    assert terms[::-1] in (terms, tuple(-c for c in terms))


@pytest.mark.parametrize("name", ["axis", "infinity"])
def test_reference_burau_determinants_are_centred(name):
    w = getattr(reference_braids(), name)
    pairs = shifted_determinant(w).to_pairs()
    assert pairs[0][0] + pairs[-1][0] == exponent_sum(w) == 54


@given(braid_words(max_strands=5, max_len=12))
def test_normalization_invariant_under_markov_one(w):
    from braidlink.braids import conjugate

    g = BraidWord(w.strand_count, (1,) if w.strand_count > 1 else ())
    assert alexander_polynomial(conjugate(w, g)) == alexander_polynomial(w)


# -- the word's two halves ----------------------------------------------------

def dense(rows):
    """Sparse rows of a square matrix as dense rows, every zero stored."""
    return [[row.get(j, ZERO) for j in range(len(rows))] for row in rows]


def monomial_unit(e):
    """(-t)**e."""
    return LaurentPolynomial(e, (-1 if e % 2 else 1,))


@settings(deadline=None)
@given(closure_words(max_strands=6))
@example((BraidWord(1, ()), "one-strand"))
@example((BraidWord(2, ()), "empty"))
@example((BraidWord(2, (1,)), "positive"))
@example((BraidWord(2, (-1,)), "signed"))
@example((BraidWord(4, (-3,)), "split"))
def test_halves_determinant_is_the_whole_up_to_the_unit(drawn):
    """B = XY gives det(B - I) = det X det(Y - X^-1), det X = (-t)**e(X),
    at every cut, sign and exponents included; a split closure leaves a
    column of Y - X^-1 empty at every cut."""
    w, kind = drawn
    n, letters = w.strand_count, w.letters
    whole = dense_bareiss(shifted_burau(w), ONE)
    for cut in range(len(letters) + 1):
        rows = _difference_rows(w, cut)
        unit = monomial_unit(exponent_sum(BraidWord(n, letters[:cut])))
        assert laurent_determinant(rows) * unit == whole
        if kind in ("split", "empty"):
            assert len(set().union(*rows)) < n - 1
    if n > 1:
        # The route's matrix, entry by entry, from the dense products.
        cut = _cut(w)
        tail = dense_burau(BraidWord(n, letters[cut:]))
        inverse_head = dense_burau(invert(BraidWord(n, letters[:cut])))
        assert dense(_difference_rows(w, cut)) == [
            [y - x for y, x in zip(*pair)] for pair in zip(tail, inverse_head)
        ]


def test_cut_is_half_the_word_up_to_the_expansion_order():
    assert EXPANSION_MAX == 5
    assert _cut(BraidWord(6, (1, 2, 3, 4, 5))) == 2
    assert _cut(BraidWord(7, (1, 2, 3, 4, 5, 6))) == 0
    assert _cut(BraidWord(1, ())) == 0


# -- a second route, at t = 1 --------------------------------------------------

def linking_cofactor(word, k):
    """The cofactor of the linking Laplacian (-lk(i, j) off the diagonal,
    rows summing to zero) without row and column k, and the number of
    components."""
    lk = linking_matrix(word)
    kept = [i for i in range(len(lk)) if i != k]
    rows = [
        {a: sum(lk[i]) if i == j else -lk[i][j] for a, j in enumerate(kept)} for i in kept
    ]
    return sparse_determinant(rows, 1), len(lk)


@settings(deadline=None)
@given(closure_words(), st.data())
def test_alexander_at_one_matches_the_linking_cofactor(drawn, data):
    """Delta vanishes to order mu - 1 at t = 1, and its (mu - 1)-th Taylor
    coefficient there is +- any (mu - 1)-order cofactor of the linking
    Laplacian (Hosokawa 1958, Hoste 1985)."""
    w, _ = drawn
    p = alexander_polynomial(w)
    mu = len(linking_matrix(w))
    cofactor, _ = linking_cofactor(w, data.draw(st.integers(0, mu - 1)))
    taylor = [sum(c * comb(i, k) for i, c in enumerate(p.terms)) for k in range(mu)]
    assert taylor[:-1] == [0] * (mu - 1)
    assert abs(taylor[-1]) == abs(cofactor)


# -- one packed point ---------------------------------------------------------

def shifted_burau(word):
    """dense_burau(word) - I, one list per row; no rows for one strand."""
    m = dense_burau(word) if word.strand_count > 1 else ()
    return [[p - ONE if i == j else p for j, p in enumerate(row)] for i, row in enumerate(m)]


def laurent_alexander(word):
    """The Laurent oracle: dense_bareiss of dense_burau(word) - I, divided
    exactly by the geometric sum, lowest exponent 0, leading coefficient > 0."""
    p = dense_bareiss(shifted_burau(word), ONE).exact_div(geometric_sum(word.strand_count))
    p = p.shifted(-p.low)
    return -p if p and p.terms[-1] < 0 else p


@settings(deadline=None, max_examples=60)
@given(oracle_words())
def test_alexander_matches_laurent_oracle(drawn):
    w, kind = drawn
    p = alexander_polynomial(w)
    assert p == laurent_alexander(w)
    if kind == "split" and w.strand_count > 2:
        assert p == ZERO


@pytest.mark.parametrize(
    "repeats, whole, halves",
    [(2, 1, 1), (4, 2, 1), (6, 4, 2), (12, 8, 4), (24, 9, 8), (48, 17, 9)],
    ids=["2-1", "4-2", "6-4", "12-8", "24-9", "48-17"],
)
def test_alexander_on_both_sides_of_the_cutoff(repeats, whole, halves):
    # The certified widths of B - I and of the halves form the route takes.
    w = BraidWord(3, (1, -2) * repeats)
    assert _cut(w) == repeats
    assert certificate_holds(_difference_rows(w, 0)) == whole
    assert certificate_holds(_difference_rows(w, _cut(w))) == halves
    assert alexander_polynomial(w) == laurent_alexander(w)


def certificate_holds(rows):
    width = _certified_width(rows)
    det = dense_bareiss(dense(rows), ONE)
    assert all(abs(c) < 1 << (8 * width - 1) for c in det.terms)
    return width


@settings(deadline=None, max_examples=60)
@given(braid_words(max_strands=10, max_len=80))
def test_determinant_fits_the_certified_width(w):
    # B - I, and the matrix alexander_polynomial takes.
    certificate_holds(_difference_rows(w, 0))
    certificate_holds(_difference_rows(w, _cut(w)))


@pytest.mark.parametrize(
    "name", ["axis", "infinity", "axis_all_positive", "infinity_all_positive"]
)
def test_reference_braids_take_the_packed_route(name):
    # Order 8: the route takes B - I, the empty cut.
    w = getattr(reference_braids(), name)
    assert _cut(w) == 0
    assert certificate_holds(_difference_rows(w, _cut(w))) <= PACKED_MAX


SYLVESTER_4 = ((1, 1, 1, 1), (1, -1, 1, -1), (1, 1, -1, -1), (1, -1, -1, 1))
# The Sylvester matrix of order 8, H_2 (x) H_4.
SYLVESTER_8 = tuple(
    tuple(s * h for s in (1, sign) for h in row) for sign in (1, -1) for row in SYLVESTER_4
)


def assert_exact_at_the_certificate_edge(sylvester, scale, width):
    # scale * H t**(r_i + k_j) for a Hadamard matrix H of order m meets
    # Hadamard's bound: its determinant is m**(m/2) scale**m t**(sum r +
    # sum k), just inside the slot.
    m = len(sylvester)
    r, k = (0, -3, 2, 5, 1, -2, 0, 3)[:m], (-1, 4, 0, -9, 2, 0, -5, 1)[:m]
    rows = [
        {j: LaurentPolynomial(r[i] + k[j], (scale * h,)) for j, h in enumerate(signs)}
        for i, signs in enumerate(sylvester)
    ]
    assert _certified_width(rows) == width
    det = laurent_determinant(rows)
    assert det == LaurentPolynomial(sum(r) + sum(k), (m ** (m // 2) * scale**m,))
    assert det == dense_bareiss([[row[j] for j in range(m)] for row in rows], ONE)


@pytest.mark.parametrize("scale, width", [(1, 1), (6, 2), (107, 4), (108, 8)])
def test_packed_determinant_exact_at_the_certificate_edge(scale, width):
    # Order 4 is expanded at the packed point at every width.
    assert_exact_at_the_certificate_edge(SYLVESTER_4, scale, width)


@pytest.mark.parametrize("scale, width", [(1, 2), (5, 4), (6, 8)])
def test_eliminated_determinant_exact_at_the_certificate_edge(scale, width):
    # Order 8 is eliminated at the packed point up to PACKED_MAX bytes and
    # over Z[t, 1/t] above.
    assert_exact_at_the_certificate_edge(SYLVESTER_8, scale, width)
