"""Reduced Burau representation and the one-variable Alexander polynomial.

The generator sigma_i acts on the rank n-1 representation as the identity
except in column i-1 (0-based), which holds t above the diagonal, -t on it
and 1 below; inverses hold 1 above, -1/t on and 1/t below.  For a word w
with closure L, det(burau(w) - I) equals the Alexander polynomial of L
times 1 + t + ... + t^(n-1), up to a unit: the quotient is taken by exact
division, which keeps the value at t = -1 meaningful for even n as well.
The determinant is matrices.sparse_determinant over Z[t, 1/t], the same
sparse fraction-free elimination as on the Seifert route.
"""

from __future__ import annotations

from .braids import BraidWord
from .laurent import ONE, ZERO, LaurentPolynomial, geometric_sum
from .matrices import sparse_determinant

BurauMatrix = tuple[tuple[LaurentPolynomial, ...], ...]


def burau_reduced(word: BraidWord) -> BurauMatrix:
    """Product of reduced Burau generator matrices over the word's letters.

    Respects concatenation: burau(ab) = burau(a) * burau(b).  Requires at
    least two strands.
    """
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


def alexander_polynomial(word: BraidWord) -> LaurentPolynomial:
    """One-variable Alexander polynomial of the closure, normalized so the
    lowest exponent is 0 and the leading coefficient is positive.

    Computed as det(burau(w) - I) divided exactly by 1 + t + ... + t^(n-1).
    Split closures give the zero polynomial; the one-strand word gives 1.
    """
    n = word.strand_count
    if n == 1:
        return ONE
    shifted = [
        {j: entry - ONE if i == j else entry for j, entry in enumerate(row)}
        for i, row in enumerate(burau_reduced(word))
    ]
    det = sparse_determinant(shifted, ONE)
    if det.is_zero:
        return ZERO
    quotient = det.exact_div(geometric_sum(n))
    return _normalize(quotient)


def _normalize(p: LaurentPolynomial) -> LaurentPolynomial:
    if p.is_zero:
        return p
    p = p.shifted(-p.min_exp)
    if p.coefficient(p.max_exp) < 0:
        p = -p
    return p


def determinant_from_burau(word: BraidWord) -> int:
    """Signed Alexander value at t = -1 (the Burau route to the determinant)."""
    value = alexander_polynomial(word).evaluate(-1)
    if not isinstance(value, int):
        raise RuntimeError("Alexander value at -1 must be an integer")
    return value
