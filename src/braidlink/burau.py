"""Reduced Burau representation and the one-variable Alexander polynomial.

The generator sigma_i acts on the rank n-1 representation as the identity
except in column i-1 (0-based), which holds t above the diagonal, -t on it
and 1 below; inverses hold 1 above, -1/t on and 1/t below.  For a word w
with closure L, det(burau(w) - I) equals the Alexander polynomial of L
times 1 + t + ... + t^(n-1), up to a unit: the quotient is taken by exact
division, which keeps the value at t = -1 meaningful for even n as well.
The product is built as sparse rows, {column: entry} maps of the nonzero
entries, which go as they are to matrices.sparse_determinant over
Z[t, 1/t], so no zero is stored; burau_reduced is their dense view, read
by the tests and the benchmark's stage replay.
"""

from __future__ import annotations

from .braids import BraidWord
from .laurent import ONE, ZERO, LaurentPolynomial, geometric_sum
from .matrices import sparse_determinant


def _burau_rows(word: BraidWord) -> list[dict[int, LaurentPolynomial]]:
    """The Burau product as sparse rows; no rows for one strand."""
    rows = [{i: ONE} for i in range(word.strand_count - 1)]
    for e in word.letters:
        r = abs(e) - 1
        # Right-multiplying by a generator only rewrites column r:
        # sigma_i gives t*(left - mid) + right, its inverse left + (right - mid)/t.
        for row in rows:
            left, mid, right = row.get(r - 1, ZERO), row.pop(r, ZERO), row.get(r + 1, ZERO)
            entry = (left - mid).shifted(1) + right if e > 0 else left + (right - mid).shifted(-1)
            if entry:
                row[r] = entry
    return rows


def burau_reduced(word: BraidWord) -> tuple[tuple[LaurentPolynomial, ...], ...]:
    """Dense product of the reduced Burau generator matrices over the letters.

    Respects concatenation: burau(ab) = burau(a) * burau(b).  Requires at
    least two strands.
    """
    size = word.strand_count - 1
    if size < 1:
        raise ValueError("reduced Burau needs n >= 2")
    return tuple(tuple(row.get(j, ZERO) for j in range(size)) for row in _burau_rows(word))


def alexander_polynomial(word: BraidWord) -> LaurentPolynomial:
    """One-variable Alexander polynomial of the closure, normalized so the
    lowest exponent is 0 and the leading coefficient is positive.

    Computed as det(burau(w) - I) divided exactly by 1 + t + ... + t^(n-1).
    Split closures give the zero polynomial; the one-strand word gives 1.
    """
    rows = _burau_rows(word)
    for i, row in enumerate(rows):
        row[i] = row.get(i, ZERO) - ONE
    det = sparse_determinant(rows, ONE)
    return _normalize(det.exact_div(geometric_sum(word.strand_count)))


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
