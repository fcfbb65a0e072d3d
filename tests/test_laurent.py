from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from braidlink.laurent import ONE, T, ZERO, LaurentPolynomial, geometric_sum


def poly(pairs):
    return LaurentPolynomial(dict(pairs))


laurent_polys = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9),
    max_size=6,
).map(LaurentPolynomial)


def test_zero_polynomial_is_empty_map():
    assert poly({0: 0, 3: 0}).is_zero
    assert ZERO.coeffs == {}
    assert not ZERO


def test_basic_arithmetic():
    p = poly({0: 1, 1: -1})  # 1 - t
    q = poly({0: 1, 1: 1})   # 1 + t
    assert p * q == poly({0: 1, 2: -1})
    assert p + q == poly({0: 2})
    assert p - p == ZERO
    assert (-p) == poly({0: -1, 1: 1})


def test_negative_exponents():
    p = poly({-1: 1, 1: 1})
    assert p * T == poly({0: 1, 2: 1})
    assert p.evaluate(2) == Fraction(5, 2)
    assert p.evaluate(-1) == -2


def test_shift_and_scale():
    p = poly({0: 2, 3: -1})
    assert p.shifted(-2) == poly({-2: 2, 1: -1})


def test_exact_division_round_trip():
    p = poly({0: 1, 1: -1, 2: 1})
    q = poly({-1: 2, 1: 3})
    assert (p * q).exact_div(q) == p
    assert (p * q).exact_div(p) == q


def test_exact_division_rejects_inexact():
    with pytest.raises(ValueError):
        poly({0: 1, 1: 1}).exact_div(poly({0: 2}))
    with pytest.raises(ValueError):
        poly({0: 1, 2: 1}).exact_div(poly({0: 1, 1: 1}))


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE.exact_div(ZERO)


def test_geometric_sum():
    assert geometric_sum(1) == ONE
    assert geometric_sum(3) == poly({0: 1, 1: 1, 2: 1})
    # vanishes at -1 for even length: the reason division precedes evaluation
    assert geometric_sum(4).evaluate(-1) == 0
    assert geometric_sum(5).evaluate(-1) == 1


def test_repr_readable():
    assert repr(ZERO) == "0"
    assert repr(poly({0: 1, 1: -1, 2: 1})) == "1 - t + t^2"
    assert repr(poly({-2: 3})) == "3*t^-2"


@given(laurent_polys, laurent_polys, laurent_polys)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)
    assert p + ZERO == p
    assert p * ONE == p


@given(laurent_polys, laurent_polys)
def test_multiplication_divides_back(p, q):
    if q.is_zero:
        return
    assert (p * q).exact_div(q) == p


@given(laurent_polys, st.sampled_from([-3, -2, -1, 1, 2, 3]))
def test_evaluation_is_ring_homomorphism(p, x):
    q = p * p + p
    assert q.evaluate(x) == p.evaluate(x) * p.evaluate(x) + p.evaluate(x)
