import functools
import operator

import pytest
from hypothesis import example, given, settings, strategies as st

from braidlink.laurent import (
    ONE,
    ZERO,
    LaurentPolynomial,
    geometric_sum,
    kronecker_pack,
    kronecker_unpack,
    slot_width,
)


T = LaurentPolynomial(1, (1,))


def poly(pairs):
    """The polynomial with these {exponent: coefficient} terms."""
    support = {e: c for e, c in dict(pairs).items() if c}
    if not support:
        return ZERO
    low = min(support)
    terms = [0] * (max(support) - low + 1)
    for e, c in support.items():
        terms[e - low] = c
    return LaurentPolynomial(low, terms)


def coeffs(p):
    """{exponent: coefficient} of the nonzero terms."""
    return {p.low + i: c for i, c in enumerate(p.terms) if c}


laurent_polys = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9),
    max_size=6,
).map(poly)


def test_zero_polynomial_is_empty_map():
    assert not poly({0: 0, 3: 0})
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
    assert (p * T).evaluate(2) == 5
    # refused at 2, where t + 1/t is 5/2, and at -1, where it is the integer -2
    for x in (2, -1):
        with pytest.raises(ValueError):
            p.evaluate(x)


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
    # (t + 2) / 2: 2**w + 2 is even at every slot width w, but t / 2 is not
    # an integer polynomial.
    f, g = poly({0: 2, 1: 1}), poly({0: 2})
    for width in (1, 2, 4, 8, 9):
        assert kronecker_pack(f.terms, width) % kronecker_pack(g.terms, width) == 0
    with pytest.raises(ValueError):
        f.exact_div(g)


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
    if not q:
        return
    assert (p * q).exact_div(q) == p


@given(laurent_polys, st.sampled_from([-3, -2, -1, 1, 2, 3]))
def test_evaluation_is_ring_homomorphism(p, x):
    p = p.shifted(-p.low)  # only non-negative exponents evaluate
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
    return poly(out)


coefficients = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-(2**130), max_value=2**130),
    st.sampled_from([2**64, 2**64 + 1, -(2**64), -(2**64) - 1, 2**63 - 1, -(2**63)]),
)
dense_polys = st.builds(
    LaurentPolynomial,
    st.integers(min_value=-30, max_value=30),
    st.lists(coefficients, min_size=1, max_size=40),
).filter(bool)


def test_coefficients_above_two_to_the_64():
    big = 2**64 + 3
    p = poly({e: (-1) ** (e % 2) * big ** (e % 3) for e in range(-3, 16)})
    q = poly({e: big * (e % 4) - e for e in range(16)})
    assert p * q == schoolbook_product(p, q)
    assert (p * q).exact_div(q) == p


# Short factors, and lengths on both sides of 8 and of 16 terms.
LENGTHS = (1, 2, 8, 9, 16, 17, 24, 40, 48)


@pytest.mark.parametrize("m", LENGTHS)
@pytest.mark.parametrize("n", LENGTHS)
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
    assert (length * c * c).bit_length() % 8 == 0
    assert (p * p).terms[length - 1] == length * c * c
    assert p * p == schoolbook_product(p, p)
    assert p * -p == schoolbook_product(p, -p)


@pytest.mark.parametrize("width", [1, 2, 3, 4, 8, 9, 16])
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
        expected = poly({i - 3: c for i, c in enumerate(terms)})
        assert kronecker_unpack(packed, width, -3) == expected
    assert kronecker_unpack(0, width, 5) == ZERO
    for digits in ([top + 1], [0, -top - 2], [1, 2**200, 3]):
        with pytest.raises(OverflowError):
            kronecker_pack(digits, width)


@given(
    st.sampled_from([1, 2, 3, 4, 8, 9, 16]).flatmap(
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
    expected = poly({low + i: c for i, c in enumerate(terms)})
    assert kronecker_unpack(kronecker_pack(terms, width), width, low) == expected


@given(st.sampled_from([1, 2, 3, 4, 8, 9, 16]), st.integers(min_value=-(2**300), max_value=2**300))
@example(1, 2**15 - 1)  # a top digit of 127 that needs one slot more than its bits
@example(2, -(2**15))
def test_unpack_reads_any_int_back(width, value):
    """Any int, not only a packed one, reads back as digits whose value it is."""
    p = kronecker_unpack(value, width, 0)
    assert all(abs(c) <= 2 ** (8 * width - 1) for c in p.terms)
    assert sum(c * 2 ** (8 * width * e) for e, c in p.to_pairs()) == value


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


def power(p, k):
    return functools.reduce(operator.mul, [p] * k, ONE)


@pytest.mark.parametrize("k", [5, 9, 17])
def test_exact_division_widens_the_slot(k):
    """((t+1)(t^3+1))^k / (t^2-t+1)^k = (t+1)^(2k), whose middle
    coefficient needs a wider slot than any coefficient of either operand."""
    f = power(poly({0: 1, 1: 1, 3: 1, 4: 1}), k)
    g = power(poly({0: 1, 1: -1, 2: 1}), k)
    q = power(poly({0: 1, 1: 1}), 2 * k)
    assert slot_width(max(map(abs, q.terms))) > slot_width(max(map(abs, f.terms + g.terms)))
    assert f.exact_div(g) == q
    assert f.exact_div(q) == g


def schoolbook_exact_div(p, q):
    """Long division of p by q from the top term down: the oracle for the
    packed exact division.  ValueError if q does not divide p."""
    f, g = list(p.terms), q.terms
    if not f:
        return ZERO
    if len(f) < len(g):
        raise ValueError("division is not exact (degree too small)")
    quotient = [0] * (len(f) - len(g) + 1)
    for i in reversed(range(len(quotient))):
        lead, r = divmod(f[i + len(g) - 1], g[-1])
        if r:
            raise ValueError("division is not exact over the integers")
        quotient[i] = lead
        for j, c in enumerate(g, i):
            f[j] -= lead * c
    if any(f):
        raise ValueError("division is not exact (nonzero remainder)")
    return poly({p.low - q.low + i: c for i, c in enumerate(quotient)})


@settings(max_examples=150)
@given(dense_polys, dense_polys)
def test_exact_division_round_trip_dense(p, q):
    f = p * q
    assert f.exact_div(q) == schoolbook_exact_div(f, q) == p
    assert f.exact_div(p) == schoolbook_exact_div(f, p) == q


@settings(max_examples=150)
@given(dense_polys, dense_polys, st.integers(min_value=-40, max_value=40))
def test_exact_division_rejects_a_perturbed_product(p, q, exp):
    if len(q.terms) == 1 and abs(q.terms[0]) == 1:
        return  # a unit divides everything
    f = p * q + poly({exp: 1})
    for divide in (LaurentPolynomial.exact_div, schoolbook_exact_div):
        with pytest.raises(ValueError):
            divide(f, q)


@given(
    st.integers(min_value=-30, max_value=30),
    st.lists(st.one_of(st.just(0), coefficients), max_size=12),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)
def test_dense_form_matches_mapping(low, terms, lead, trail):
    """The constructor's normal form: zero ends trimmed on either side, the
    zero polynomial at low 0, and equal polynomials hash equal."""
    support = {low + i: c for i, c in enumerate(terms) if c}
    p = LaurentPolynomial(low - lead, [0] * lead + terms + [0] * trail)
    assert coeffs(p) == support
    assert p.to_pairs() == tuple(sorted(support.items()))
    if support:
        assert p.terms[0] != 0 and p.terms[-1] != 0
        assert (p.low, p.low + len(p.terms) - 1) == (min(support), max(support))
    else:
        assert (p.low, p.terms) == (0, ()) and p == ZERO
    q = LaurentPolynomial(low, terms)
    assert p == q == poly(support)
    assert hash(p) == hash(q) == hash(poly(support))


@pytest.mark.parametrize("low", [-1000, -7, 7, 1000])
def test_zero_operands(low):
    """Sums, differences and products with ZERO, far from exponent 0."""
    p = LaurentPolynomial(low, (3, 0, -2))
    assert (p + ZERO, ZERO + p, p - ZERO) == (p, p, p)
    assert ZERO - p == -p == LaurentPolynomial(low, (-3, 0, 2))
    assert ZERO * p == p * ZERO == ZERO
    assert ((ZERO * p).low, (ZERO * p).terms) == (0, ())
    assert ZERO - ONE == -ONE == LaurentPolynomial(0, (-1,))
