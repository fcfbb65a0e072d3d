from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from braidlink.laurent import (
    ONE,
    SCHOOLBOOK_MAX,
    T,
    ZERO,
    LaurentPolynomial,
    geometric_sum,
    kronecker_pack,
    kronecker_unpack,
)


def poly(pairs):
    return LaurentPolynomial(dict(pairs))


def coeffs(p):
    """{exponent: coefficient} of the nonzero terms."""
    return {p.low + i: c for i, c in enumerate(p.terms) if c}


laurent_polys = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9),
    max_size=6,
).map(LaurentPolynomial)


def test_zero_polynomial_is_empty_map():
    assert poly({0: 0, 3: 0}).is_zero
    assert coeffs(ZERO) == {}
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


# -- the dense core against a term-by-term oracle ------------------------------


def schoolbook_product(p, q):
    """Product over the {exponent: coefficient} maps, term by term: the
    oracle for the packed multiplication."""
    out = {}
    for e1, c1 in coeffs(p).items():
        for e2, c2 in coeffs(q).items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return LaurentPolynomial(out)


coefficients = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-(2**130), max_value=2**130),
    st.sampled_from([2**64, 2**64 + 1, -(2**64), -(2**64) - 1, 2**63 - 1, -(2**63)]),
)
# Up to five times the schoolbook cutoff, so both sides of it are drawn.
dense_polys = st.builds(
    lambda low, terms: LaurentPolynomial({low + i: c for i, c in enumerate(terms)}),
    st.integers(min_value=-30, max_value=30),
    st.lists(coefficients, min_size=1, max_size=5 * SCHOOLBOOK_MAX),
).filter(bool)


def test_coefficients_above_two_to_the_64():
    big = 2**64 + 3
    p = poly({e: (-1) ** (e % 2) * big ** (e % 3) for e in range(-3, 2 * SCHOOLBOOK_MAX)})
    q = poly({e: big * (e % 4) - e for e in range(2 * SCHOOLBOOK_MAX)})
    assert len(p.terms) > SCHOOLBOOK_MAX and len(q.terms) > SCHOOLBOOK_MAX
    assert p * q == schoolbook_product(p, q)
    assert (p * q).exact_div(q) == p


@pytest.mark.parametrize("m", [1, SCHOOLBOOK_MAX, SCHOOLBOOK_MAX + 1, 3 * SCHOOLBOOK_MAX])
@pytest.mark.parametrize("n", [SCHOOLBOOK_MAX, SCHOOLBOOK_MAX + 1, 40])
def test_lengths_around_the_schoolbook_cutoff(m, n):
    p = poly({-2 + i: (-1) ** i * (i + 1) ** 9 for i in range(m)})
    q = poly({-5 + i: (-3) ** (i % 7) - 2**70 * (i % 2) for i in range(n)})
    assert len(p.terms) == m and len(q.terms) == n
    assert p * q == schoolbook_product(p, q)
    assert q * p == schoolbook_product(p, q)


@pytest.mark.parametrize("length, bits", [(32, 1), (32, 29), (128, 4), (128, 28)])
def test_product_coefficient_at_the_slot_bound(length, bits):
    """length * c * c is 2**(8k - 1): the largest product coefficient sits
    exactly on the bound the slot width is chosen from."""
    c = 2**bits
    p = poly({i: c for i in range(length)})
    assert length > SCHOOLBOOK_MAX
    assert (length * c * c).bit_length() % 8 == 0
    assert (p * p).coefficient(length - 1) == length * c * c
    assert p * p == schoolbook_product(p, p)
    assert p * -p == schoolbook_product(p, -p)


@pytest.mark.parametrize("width", [1, 2, 9])
def test_pack_unpack_round_trip(width):
    top = 2 ** (8 * width - 1) - 1  # the extreme digits the slot holds
    for terms in (
        [top, -top, top, -top],
        [-top, 0, 0, top],
        [0, 1, -1, top],
        [top, 0, -1],
        [5, -top],
        [-1],
        [top],
        [0, 0, 7, 0, 0],
    ):
        packed = kronecker_pack(terms, width)
        assert packed == sum(c * 2 ** (8 * width * i) for i, c in enumerate(terms))
        expected = LaurentPolynomial({i - 3: c for i, c in enumerate(terms)})
        assert kronecker_unpack(packed, width, -3) == expected
    assert kronecker_unpack(0, width, 5) == ZERO
    with pytest.raises(OverflowError):
        kronecker_pack([top + 1], width)


@given(
    st.sampled_from([1, 2, 9]).flatmap(
        lambda width: st.tuples(
            st.just(width),
            st.lists(st.integers(min_value=1 - 2 ** (8 * width - 1),
                                 max_value=2 ** (8 * width - 1) - 1), max_size=40),
        )
    ),
    st.integers(min_value=-30, max_value=30),
)
def test_pack_unpack_round_trip_drawn(width_and_terms, low):
    width, terms = width_and_terms
    expected = LaurentPolynomial({low + i: c for i, c in enumerate(terms)})
    assert kronecker_unpack(kronecker_pack(terms, width), width, low) == expected


def test_product_with_cancelling_ends():
    # (1 + t)(1 - t) cancels its middle; (t^-1 - 1)(1 + t) + ... trims ends
    p = poly({i: 1 for i in range(8)})
    q = poly({0: 1, 1: -1})
    assert p * q == poly({0: 1, 8: -1})
    assert (p - p.shifted(1)) == poly({0: 1, 8: -1})
    assert (p - p) == ZERO and (p - p).terms == () and (p - p).low == 0


@settings(max_examples=200)
@given(dense_polys, dense_polys)
def test_packed_product_matches_schoolbook(p, q):
    assert p * q == schoolbook_product(p, q)


@settings(max_examples=150)
@given(dense_polys, dense_polys)
def test_exact_division_round_trip_dense(p, q):
    f = p * q
    assert f.exact_div(q) == p
    assert f.exact_div(p) == q


@settings(max_examples=150)
@given(dense_polys, dense_polys, st.integers(min_value=-40, max_value=40))
def test_exact_division_rejects_a_perturbed_product(p, q, exp):
    if len(q.terms) == 1 and abs(q.terms[0]) == 1:
        return  # a unit divides everything
    f = p * q + poly({exp: 1})
    with pytest.raises(ValueError):
        f.exact_div(q)


@given(dense_polys)
def test_dense_form_matches_mapping(p):
    assert p.terms[0] != 0 and p.terms[-1] != 0
    assert LaurentPolynomial(coeffs(p)) == p
    assert hash(LaurentPolynomial(coeffs(p))) == hash(p)
    assert p.to_pairs() == tuple(sorted(coeffs(p).items()))
    assert (p.min_exp, p.max_exp) == (min(coeffs(p)), max(coeffs(p)))
