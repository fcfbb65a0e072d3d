import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from braidlink.braids import BraidWord, concat, invert
from braidlink.burau import (
    alexander_polynomial,
    burau_reduced,
    determinant_from_burau,
)
from braidlink.laurent import ONE, ZERO, LaurentPolynomial
from strategies import braid_words


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
    assert alexander_polynomial(BraidWord(2, (1, 1, 1))) == LaurentPolynomial(
        {0: 1, 1: -1, 2: 1}
    )


def test_figure_eight_polynomial():
    assert alexander_polynomial(BraidWord(3, (1, -2, 1, -2))) == LaurentPolynomial(
        {0: 1, 1: -3, 2: 1}
    )


def test_hopf_link_value():
    assert abs(alexander_polynomial(BraidWord(2, (1, 1))).evaluate(-1)) == 2


def test_split_closures_vanish():
    assert alexander_polynomial(BraidWord(2, ())) == ZERO
    assert alexander_polynomial(BraidWord(3, (1, 1, 1))) == ZERO
    assert determinant_from_burau(BraidWord(3, (1,))) == 0


@given(braid_words(max_strands=5, max_len=14))
def test_alexander_symmetry(w):
    p = alexander_polynomial(w)
    if p.is_zero:
        return
    assert p.min_exp == 0
    assert p.coefficient(p.max_exp) > 0
    reversed_p = LaurentPolynomial({p.max_exp - e: c for e, c in p.to_pairs()})
    assert reversed_p == p or reversed_p == -p


@given(braid_words(max_strands=5, max_len=12))
def test_normalization_invariant_under_markov_one(w):
    from braidlink.braids import conjugate

    g = BraidWord(w.strand_count, (1,) if w.strand_count > 1 else ())
    assert alexander_polynomial(conjugate(w, g)) == alexander_polynomial(w)
