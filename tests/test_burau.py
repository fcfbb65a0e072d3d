import pytest
from hypothesis import given

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
