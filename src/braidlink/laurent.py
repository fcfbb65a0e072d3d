"""Integer-coefficient Laurent polynomials in one variable t.

A polynomial is stored densely: its lowest exponent and the tuple of its
coefficients from that exponent up, with no zero at either end; the zero
polynomial is the empty tuple.  ``to_pairs`` gives the (exponent,
coefficient) pairs of the nonzero terms.  All arithmetic is exact over the
integers.  Division is only provided as exact division, ``exact_div`` or
``//``, which raises ValueError if the divisor does not divide.

Kronecker substitution packs a polynomial into one Python int: its value
at t = 2**(8*width), one slot of width bytes per coefficient.
``kronecker_pack`` and ``kronecker_unpack`` are the one pair that packs a
coefficient list and reads a packed int back as signed digits, exactly
whenever every coefficient lies strictly between -2**(8*width-1) and
2**(8*width-1); each caller passes an exact integer bound on its
coefficients to ``slot_width``, and no float is involved.  That gives 1,
2, 4 or 8 bytes where it can, since struct converts a whole list of
two's-complement slots at those widths in C; flipping each slot's top bit
adds 2**(8*width-1) to it.  Wider slots take a per-coefficient loop.
Every product of two polynomials is one packed multiplication, at the
width of the bound min(terms) * max|f_i| * max|g_j| on their coefficients;
the Burau product (burau.py) keeps its matrix entries packed, and the
docstring of matrices.py states when matrices.laurent_determinant takes a
determinant at one packed point.

Exact division is one packed divmod, at the width of the larger of
max|dividend| and max|divisor|, and one read-back.  A remainder proves it
inexact.  Otherwise the quotient q read back has q(2**w) * divisor(2**w) =
dividend(2**w), so q * divisor == dividend once every coefficient of that
product, at most min(terms) * max|q_i| * max|divisor_j|, fits a slot.  If
one does not, the width doubles, up to the width at which the true
quotient would fit: a quotient of degree k has no coefficient above
binom(k, k//2) times the 2-norm of the dividend (Mignotte 1974).
"""

from __future__ import annotations

import struct
from functools import lru_cache
from math import comb, isqrt
from operator import add, mul, neg, sub
from typing import Sequence

from . import Record


class LaurentPolynomial(Record):
    __slots__ = ("low", "terms")

    low: int  # exponent of terms[0]; 0 for the zero polynomial
    terms: tuple[int, ...]  # coefficients of t**low, t**(low+1), ...

    def __init__(self, low: int, terms: Sequence[int]):
        """The polynomial sum(terms[i] * t**(low + i)); trims zero ends."""
        if not (terms and terms[0] and terms[-1]):
            start, end = 0, len(terms)
            while start < end and not terms[start]:
                start += 1
            while end > start and not terms[end - 1]:
                end -= 1
            low, terms = (low + start, terms[start:end]) if start < end else (0, ())
        _set_low(self, low)
        _set_terms(self, tuple(terms))

    # -- structure ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

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
        low, a, b = self._aligned(other)
        return LaurentPolynomial(low, list(map(add, a, b)))

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial(self.low, list(map(neg, self.terms)))

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        low, a, b = self._aligned(other)
        return LaurentPolynomial(low, list(map(sub, a, b)))

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        a, b = self.terms, other.terms
        if not a or not b:
            return ZERO
        width = slot_width(min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b)))
        packed = kronecker_pack(a, width) * kronecker_pack(b, width)
        return kronecker_unpack(packed, width, self.low + other.low)

    def shifted(self, k: int) -> "LaurentPolynomial":
        """Multiply by t**k."""
        return LaurentPolynomial(self.low + k, self.terms)

    # -- evaluation ------------------------------------------------------

    def evaluate(self, x: int) -> int:
        """Exact value at an integer point; ValueError on a negative
        exponent, where the value need not be an integer."""
        if self.low < 0:
            raise ValueError("a negative exponent has no integer value")
        total = 0
        for c in reversed(self.terms):
            total = total * x + c
        return total * x**self.low

    # -- exact division -------------------------------------------------

    def exact_div(self, divisor: "LaurentPolynomial") -> "LaurentPolynomial":
        """Exact quotient self / divisor in Z[t, 1/t]; ValueError if inexact."""
        f, g = self.terms, divisor.terms
        if not g:
            raise ZeroDivisionError("division by the zero polynomial")
        if not f:
            return ZERO
        k = len(f) - len(g)  # the degree of the quotient
        if k < 0:
            raise ValueError("division is not exact (degree too small)")
        top = max(map(abs, g))
        width = slot_width(max(max(map(abs, f)), top))
        cap = None
        while True:
            packed, rem = divmod(kronecker_pack(f, width), kronecker_pack(g, width))
            if rem:
                raise ValueError("division is not exact (nonzero remainder)")
            quotient = kronecker_unpack(packed, width, self.low - divisor.low)
            # quotient * divisor == self if its coefficients fit the slots.
            q = quotient.terms
            if min(len(q), len(g)) * max(map(abs, q)) * top < 1 << (8 * width - 1):
                return quotient
            if cap is None:
                norm = isqrt(sum(map(mul, f, f))) + 1  # above the 2-norm of self
                cap = slot_width(min(k + 1, len(g)) * top * comb(k, k // 2) * norm)
            if width >= cap:
                raise ValueError("division is not exact over the integers")
            width = min(2 * width, cap)

    __floordiv__ = exact_div

    # -- dunder plumbing -------------------------------------------------

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


# The slots' own setters, which bypass Record's immutability guard.
_set_low = LaurentPolynomial.low.__set__
_set_terms = LaurentPolynomial.terms.__set__


# Slot widths in bytes that struct converts a whole coefficient list at.
_STRUCT_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}


def slot_width(bound: int) -> int:
    """The least width in bytes, 1, 2, 4 or 8 where one will do, with
    2**(8*width-1) > bound, for coefficients of absolute value at most bound."""
    width = (bound.bit_length() + 8) // 8
    return width if width > 8 else 1 << (width - 1).bit_length()


@lru_cache(maxsize=256)
def _halves(size: int, width: int) -> int:
    """2**(8*width-1) in each of size slots of width bytes."""
    return int.from_bytes((1 << (8 * width - 1)).to_bytes(width, "little") * size, "little")


def kronecker_pack(coeffs: Sequence[int], width: int) -> int:
    """sum(coeffs[i] * 2**(8*width*i)): the polynomial with these
    coefficients, lowest first, at t = 2**(8*width).  Every coefficient must
    lie strictly between -2**(8*width-1) and 2**(8*width-1); OverflowError
    otherwise."""
    code = _STRUCT_CODES.get(width)
    try:
        if code:
            twos = struct.pack(f"<{len(coeffs)}{code}", *coeffs)
        else:
            twos = b"".join([c.to_bytes(width, "little", signed=True) for c in coeffs])
    except struct.error as error:
        raise OverflowError(f"a coefficient does not fit {width}-byte slots") from error
    # Flipping each slot's top bit gives its coefficient plus 2**(8*width-1).
    halves = _halves(len(coeffs), width)
    return (int.from_bytes(twos, "little") ^ halves) - halves


def kronecker_unpack(value: int, width: int, low: int) -> LaurentPolynomial:
    """The polynomial sum(d_i * t**(low + i)) over the signed
    base-2**(8*width) digits d_i of value, each strictly between
    -2**(8*width-1) and 2**(8*width-1): the inverse of kronecker_pack."""
    # size such digits hold every value below 2**(8*width*size - 2) in
    # magnitude, so the bit length gives enough of them; zero ends are trimmed.
    size = (value.bit_length() + 1) // (8 * width) + 1
    halves = _halves(size, width)
    twos = ((value + halves) ^ halves).to_bytes(width * size, "little")
    code = _STRUCT_CODES.get(width)
    if code:
        coeffs = struct.unpack(f"<{size}{code}", twos)
    else:
        coeffs = [
            int.from_bytes(twos[i : i + width], "little", signed=True)
            for i in range(0, width * size, width)
        ]
    return LaurentPolynomial(low, coeffs)


ZERO = LaurentPolynomial(0, ())
ONE = LaurentPolynomial(0, (1,))


def geometric_sum(n: int) -> LaurentPolynomial:
    """1 + t + ... + t**(n-1)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return LaurentPolynomial(0, (1,) * n)
