"""Reduced Burau representation and the one-variable Alexander polynomial.

The generator sigma_i acts on the rank n-1 representation as the identity
except in column i-1 (0-based), which holds t above the diagonal, -t on it
and 1 below; inverses hold 1 above, -1/t on and 1/t below.  For a word w
with closure L, det(burau(w) - I) equals the Alexander polynomial of L
times 1 + t + ... + t^(n-1), up to a unit: the quotient is taken by exact
division, which keeps the value at t = -1 meaningful for even n as well.
The product is built as sparse rows, {column: entry} maps of the nonzero
entries, which go to matrices.sparse_determinant over Z[t, 1/t], so no
zero is stored; burau_reduced is their dense view, read by the tests and
the benchmark's stage replay.

The product runs on packed integers (Kronecker substitution, see
laurent.py): each entry is one Python int, its polynomial at t = 2**w, so
a letter costs each row three shifts and two additions of ints, and the
entries are read back into Laurent polynomials once, after the last
letter.  The slot width w comes from an integer pre-pass over the letters.
A new entry is +-left +- mid +- right, so, from bound 1 on every column
(the identity) and 0 on the two empty border columns, a letter adds to the
bound of the column it rewrites those of its two neighbours; the bounds
grow only in the columns the word touches.  w is the least multiple of 8
with 2**(w-1) above every bound, so every coefficient reads back exactly.
Column c stores t**s_c times its entries, so every stored value is an
ordinary polynomial: a letter sets s_c of the column it rewrites to the
least value that leaves each of the three terms a non-negative shift,
max(s_left - 1, s_mid - 1, s_right) for sigma_i and
max(s_left, s_mid + 1, s_right + 1) for its inverse.
"""

from __future__ import annotations

from .braids import BraidWord
from .laurent import ONE, ZERO, LaurentPolynomial, geometric_sum, kronecker_unpack
from .matrices import sparse_determinant


def _burau_rows(word: BraidWord) -> list[dict[int, LaurentPolynomial]]:
    """The Burau product as sparse rows; no rows for one strand."""
    n, letters = word.strand_count, word.letters
    # bound[c + 1] bounds the coefficients of column c; columns -1 and n - 1
    # are the empty borders.
    bound = [0] + [1] * (n - 1) + [0]
    for e in letters:
        r = abs(e)
        bound[r] += bound[r - 1] + bound[r + 1]
    width = max(bound).bit_length() // 8 + 1  # bytes per slot: 2**(8*width-1) > bound
    w = 8 * width
    # shift[c + 1] is s_c.  A letter sets its column's shift to at least
    # s_mid - 1, so no shift falls below -len(letters): the borders' shift
    # never raises s.
    border = -len(letters) - 2
    shift = [border] + [0] * (n - 1) + [border]
    rows = [{i: 1} for i in range(n - 1)]
    for e in letters:
        r = abs(e)
        left, mid, right = shift[r - 1], shift[r], shift[r + 1]
        if e > 0:  # sigma_i: t*(left - mid) + right
            s = max(left - 1, mid - 1, right)
            a, b, c = (s + 1 - left) * w, (s + 1 - mid) * w, (s - right) * w
        else:  # its inverse: left + (right - mid)/t
            s = max(left, mid + 1, right + 1)
            a, b, c = (s - left) * w, (s - 1 - mid) * w, (s - 1 - right) * w
        shift[r] = s
        # Right-multiplying by a generator only rewrites column r - 1.
        for row in rows:
            entry = (row.get(r - 2, 0) << a) - (row.pop(r - 1, 0) << b) + (row.get(r, 0) << c)
            if entry:
                row[r - 1] = entry
    return [
        {j: kronecker_unpack(v, width, -shift[j + 1]) for j, v in row.items()} for row in rows
    ]


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
