"""Integer-coefficient Laurent polynomials in one variable t.

Polynomials are stored sparsely as {exponent: coefficient} with no zero
coefficients; the zero polynomial is the empty map.  All arithmetic is
exact over the integers.  Division is only provided as exact division
(raises if the divisor does not divide).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping


class LaurentPolynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        cleaned: dict[int, int] = {}
        if coeffs:
            for exp, c in coeffs.items():
                if not isinstance(exp, int) or not isinstance(c, int):
                    raise TypeError("exponents and coefficients must be int")
                if c != 0:
                    cleaned[exp] = c
        object.__setattr__(self, "coeffs", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPolynomial is immutable")

    # -- structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def min_exp(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no exponents")
        return min(self.coeffs)

    @property
    def max_exp(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no exponents")
        return max(self.coeffs)

    def coefficient(self, exp: int) -> int:
        return self.coeffs.get(exp, 0)

    def to_pairs(self) -> tuple[tuple[int, int], ...]:
        """Sorted (exponent, coefficient) pairs; canonical serial form."""
        return tuple(sorted(self.coeffs.items()))

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            s = out.get(exp, 0) + c
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
        return LaurentPolynomial(out)

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return self + (-other)

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        if not self.coeffs or not other.coeffs:
            return ZERO
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return LaurentPolynomial(out)

    def shifted(self, k: int) -> "LaurentPolynomial":
        """Multiply by t**k."""
        return LaurentPolynomial({e + k: v for e, v in self.coeffs.items()})

    # -- evaluation ------------------------------------------------------

    def evaluate(self, x: int | Fraction) -> int | Fraction:
        """Exact value at a nonzero rational point."""
        if x == 0 and self.coeffs and self.min_exp < 0:
            raise ZeroDivisionError("negative exponents cannot be evaluated at 0")
        total: int | Fraction = 0
        for e, c in self.coeffs.items():
            if e >= 0:
                total += c * x**e
            else:
                total += c / Fraction(x) ** (-e)
        if isinstance(total, Fraction) and total.denominator == 1:
            return int(total)
        return total

    # -- exact division -------------------------------------------------

    def exact_div(self, divisor: "LaurentPolynomial") -> "LaurentPolynomial":
        """Exact quotient self / divisor in Z[t, 1/t]; ValueError if inexact."""
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return ZERO
        f_shift = self.min_exp
        g_shift = divisor.min_exp
        fd = _dense(self.shifted(-f_shift))
        gd = _dense(divisor.shifted(-g_shift))
        if len(fd) < len(gd):
            raise ValueError("division is not exact (degree too small)")
        q = [0] * (len(fd) - len(gd) + 1)
        rem = list(fd)
        glead = gd[-1]
        for i in range(len(q) - 1, -1, -1):
            top = rem[i + len(gd) - 1]
            if top == 0:
                continue
            if top % glead != 0:
                raise ValueError("division is not exact over the integers")
            q[i] = top // glead
            for j, gc in enumerate(gd):
                rem[i + j] -= q[i] * gc
        if any(rem):
            raise ValueError("division is not exact (nonzero remainder)")
        return LaurentPolynomial(
            {i + f_shift - g_shift: c for i, c in enumerate(q) if c}
        )

    # -- dunder plumbing -------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in sorted(self.coeffs.items()):
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


def _dense(p: LaurentPolynomial) -> list[int]:
    """Coefficients [c_0 .. c_deg] of an ordinary polynomial (min_exp 0)."""
    deg = p.max_exp
    out = [0] * (deg + 1)
    for e, c in p.coeffs.items():
        out[e] = c
    return out


ZERO = LaurentPolynomial()
ONE = LaurentPolynomial({0: 1})
T = LaurentPolynomial({1: 1})


def geometric_sum(n: int) -> LaurentPolynomial:
    """1 + t + ... + t**(n-1)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return LaurentPolynomial({k: 1 for k in range(n)})
