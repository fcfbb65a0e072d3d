"""Integer-coefficient Laurent polynomials in one variable t.

A polynomial is stored densely: its lowest exponent and the tuple of its
coefficients from that exponent up, with no zero at either end; the zero
polynomial is the empty tuple.  ``to_pairs`` gives the (exponent,
coefficient) pairs of the nonzero terms.  All arithmetic is exact over the
integers.  Division is only provided as exact division, ``exact_div`` or
``//``, which raises ValueError if the divisor does not divide.

Products of two polynomials that both have more than ``SCHOOLBOOK_MAX``
terms use Kronecker substitution: each factor is evaluated at t = 2**w,
packed into one Python int with one w-bit slot per coefficient, the two
ints are multiplied, and the product's coefficients are read back as
signed base-2**w digits.  The slot width comes from an exact integer bound
on the product's coefficients, min(terms) * max|f_i| * max|g_j|, so every
digit lies strictly between -2**(w-1) and 2**(w-1) and the read-back is
exact; no float is involved.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, neg, sub
from typing import Mapping

# Factors with at most this many terms are multiplied term by term.
SCHOOLBOOK_MAX = 16


class LaurentPolynomial:
    __slots__ = ("low", "terms")

    low: int  # exponent of terms[0]; 0 for the zero polynomial
    terms: tuple[int, ...]  # coefficients of t**low, t**(low+1), ...

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        low, dense = 0, []
        if coeffs:
            for exp, c in coeffs.items():
                if not isinstance(exp, int) or not isinstance(c, int):
                    raise TypeError("exponents and coefficients must be int")
            support = [exp for exp, c in coeffs.items() if c]
            if support:
                low = min(support)
                dense = [0] * (max(support) - low + 1)
                for exp in support:
                    dense[exp - low] = coeffs[exp]
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "terms", tuple(dense))

    @classmethod
    def _dense(cls, low: int, terms) -> "LaurentPolynomial":
        """The polynomial sum(terms[i] * t**(low + i)); trims zero ends."""
        if not (terms and terms[0] and terms[-1]):
            start, end = 0, len(terms)
            while start < end and not terms[start]:
                start += 1
            while end > start and not terms[end - 1]:
                end -= 1
            low, terms = (low + start, terms[start:end]) if start < end else (0, ())
        p = object.__new__(cls)
        object.__setattr__(p, "low", low)
        object.__setattr__(p, "terms", tuple(terms))
        return p

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPolynomial is immutable")

    # -- structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def min_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no exponents")
        return self.low

    @property
    def max_exp(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no exponents")
        return self.low + len(self.terms) - 1

    def coefficient(self, exp: int) -> int:
        i = exp - self.low
        return self.terms[i] if 0 <= i < len(self.terms) else 0

    def to_pairs(self) -> tuple[tuple[int, int], ...]:
        """Sorted (exponent, coefficient) pairs; canonical serial form."""
        return tuple((self.low + i, c) for i, c in enumerate(self.terms) if c)

    # -- ring operations ----------------------------------------------

    def _aligned(self, other: "LaurentPolynomial") -> tuple[int, tuple, tuple]:
        """Both coefficient tuples, zero-padded to one common exponent range."""
        a, b = self.terms, other.terms
        low = min(self.low, other.low)
        high = max(self.low + len(a), other.low + len(b))
        a = (0,) * (self.low - low) + a + (0,) * (high - self.low - len(a))
        b = (0,) * (other.low - low) + b + (0,) * (high - other.low - len(b))
        return low, a, b

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        if not other.terms:
            return self
        if not self.terms:
            return other
        low, a, b = self._aligned(other)
        return LaurentPolynomial._dense(low, list(map(add, a, b)))

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial._dense(self.low, list(map(neg, self.terms)))

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        if not other.terms:
            return self
        if not self.terms:
            return -other
        low, a, b = self._aligned(other)
        return LaurentPolynomial._dense(low, list(map(sub, a, b)))

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        a, b = self.terms, other.terms
        if not a or not b:
            return ZERO
        if len(a) > len(b):
            a, b = b, a
        if len(a) > SCHOOLBOOK_MAX:
            product = _kronecker_product(a, b)
        elif len(a) == 1:
            c = a[0]
            product = [c * x for x in b]
        else:
            product = [0] * (len(a) + len(b) - 1)
            for i, c in enumerate(a):
                if c:
                    for j, x in enumerate(b, i):
                        product[j] += c * x
        return LaurentPolynomial._dense(self.low + other.low, product)

    def shifted(self, k: int) -> "LaurentPolynomial":
        """Multiply by t**k."""
        if not self.terms:
            return self
        return LaurentPolynomial._dense(self.low + k, self.terms)

    # -- evaluation ------------------------------------------------------

    def evaluate(self, x: int | Fraction) -> int | Fraction:
        """Exact value at a nonzero rational point."""
        if x == 0 and self.terms and self.low < 0:
            raise ZeroDivisionError("negative exponents cannot be evaluated at 0")
        total: int | Fraction = 0
        for c in reversed(self.terms):
            total = total * x + c
        if self.low >= 0:
            total *= x**self.low
        else:
            total = total / Fraction(x) ** -self.low
        if isinstance(total, Fraction) and total.denominator == 1:
            return int(total)
        return total

    # -- exact division -------------------------------------------------

    def exact_div(self, divisor: "LaurentPolynomial") -> "LaurentPolynomial":
        """Exact quotient self / divisor in Z[t, 1/t]; ValueError if inexact."""
        g = divisor.terms
        if not g:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self.terms:
            return ZERO
        if len(self.terms) < len(g):
            raise ValueError("division is not exact (degree too small)")
        rem = list(self.terms)
        q = [0] * (len(rem) - len(g) + 1)
        glead = g[-1]
        top = len(g) - 1
        for i in range(len(q) - 1, -1, -1):
            lead = rem[i + top]
            if not lead:
                continue
            qi, r = divmod(lead, glead)
            if r:
                raise ValueError("division is not exact over the integers")
            q[i] = qi
            for j, gc in enumerate(g, i):
                rem[j] -= qi * gc
        if any(rem[:top]):
            raise ValueError("division is not exact (nonzero remainder)")
        return LaurentPolynomial._dense(self.low - divisor.low, q)

    __floordiv__ = exact_div

    # -- dunder plumbing -------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.low == other.low and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.low, self.terms))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.to_pairs():
            if e == 0:
                term = str(c)
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                sign = "-" if c < 0 else ""
                power = "t" if e == 1 else f"t^{e}"
                term = f"{sign}{mag}{power}"
            parts.append(term)
        text = " + ".join(parts).replace("+ -", "- ")
        return text


def _kronecker_product(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """Coefficients of the product of two dense coefficient tuples, by one
    big-integer multiplication at t = 2**(8 * width)."""
    bound = min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))
    width = bound.bit_length() // 8 + 1  # bytes per slot: 2**(8*width-1) > bound
    half = 1 << (8 * width - 1)
    size = len(a) + len(b) - 1
    # Adding half to every slot makes each digit non-negative, so the packed
    # integers can be built and read with int.from_bytes and int.to_bytes.
    offsets = int.from_bytes(half.to_bytes(width, "little") * size, "little")

    def pack(coeffs: tuple[int, ...]) -> int:
        shifted = b"".join([(c + half).to_bytes(width, "little") for c in coeffs])
        return int.from_bytes(shifted, "little") - (offsets >> (8 * width * (size - len(coeffs))))

    digits = (pack(a) * pack(b) + offsets).to_bytes(width * size, "little")
    return [
        int.from_bytes(digits[i : i + width], "little") - half
        for i in range(0, width * size, width)
    ]


ZERO = LaurentPolynomial()
ONE = LaurentPolynomial({0: 1})
T = LaurentPolynomial({1: 1})


def geometric_sum(n: int) -> LaurentPolynomial:
    """1 + t + ... + t**(n-1)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return LaurentPolynomial._dense(0, (1,) * n)
