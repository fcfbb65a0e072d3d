"""Reduced Burau representation and the one-variable Alexander polynomial.

The generator sigma_i acts on the rank n-1 representation as the identity
except in column i-1 (0-based), which holds t above the diagonal, -t on it
and 1 below; inverses hold 1 above, -1/t on and 1/t below.  For a word w
with closure L, det(burau(w) - I) equals the Alexander polynomial of L
times 1 + t + ... + t^(n-1), up to a unit: the quotient is taken by exact
division, which keeps the value at t = -1 meaningful for even n as well.
Each generator has determinant -t, so for the word cut into a head X and a
tail Y, burau(w) = XY gives det(burau(w) - I) = det X det(Y - X^-1) with
det X = (-t)^e(X), e the exponent sum: a unit, which the normalisation
removes.  alexander_polynomial takes det(Y - X^-1) with X the first half of
the letters when the order n - 1 is at most matrices.EXPANSION_MAX, and
det(B - I), X empty, otherwise.  The halves' entries are products of half
as many letters, so they have about half the span and their Hadamard
certificate about half the bits.  X^-1 is the product of the inverse word
of X, its letters reversed and negated.

The products run on packed integers (Kronecker substitution, see
laurent.py): each entry is one Python int, its polynomial at t = 2**w, so
a letter costs a row three shifts and two additions of ints.  Each
letter's column and three shifts are worked out once, and then the whole
word is applied to one row at a time, a list of ints with an empty border
column on each side: right multiplication acts on each row on its own.
The slot width w comes from an integer pre-pass over the letters.
A new entry is +-left +- mid +- right, so, from bound 1 on every column
(the identity) and 0 on the two empty border columns, a letter adds to the
bound of the column it rewrites those of its two neighbours; the bounds
grow only in the columns the word touches.  w is 8 * slot_width of the
largest bound, or, for Y - X^-1, of the largest sum of the two products'
bounds on one column, so every coefficient reads back exactly.
Column c stores t**s_c times its entries, so every stored value is an
ordinary polynomial: a letter sets s_c of the column it rewrites to the
least value that leaves each of the three terms a non-negative shift,
max(s_left - 1, s_mid - 1, s_right) for sigma_i and
max(s_left, s_mid + 1, s_right + 1) for its inverse.  Y - X^-1 takes
column c at the larger of its two shifts, so the difference is packed
too.  A column no letter rewrites is the identity's in both products and
zero in the difference.

The entries of Y - X^-1 stay packed up to the determinant: the signed
digits of each nonzero entry are read once (laurent.kronecker_digits) and
handed with the packed value to matrices.digits_determinant, which takes
the certificate and each column's least exponent from the digits and
reuses the packed values where the certificate gives their slot width.
No entry becomes a Laurent polynomial unless the determinant is taken by
the Laurent elimination.  burau_reduced is the polynomial view of the same
product, read by the tests and the benchmark's stage replay.
"""

from __future__ import annotations

from operator import add
from typing import Sequence

from .braids import BraidWord
from .laurent import (
    LaurentPolynomial,
    geometric_sum,
    kronecker_digits,
    kronecker_unpack,
    slot_width,
)
from .matrices import EXPANSION_MAX, digits_determinant


def _column_bounds(n: int, letters: tuple[int, ...]) -> list[int]:
    """bound[c + 1] bounds the coefficients of column c of the product;
    columns -1 and n - 1 are the empty borders."""
    bound = [0] + [1] * (n - 1) + [0]
    for e in letters:
        r = abs(e)
        bound[r] += bound[r - 1] + bound[r + 1]
    return bound


def _letter_steps(
    n: int, letters: tuple[int, ...], w: int
) -> tuple[list[tuple[int, int, int, int]], list[int]]:
    """Each letter's step (r, a, b, c), which rewrites column r - 1 of a row
    as left << a - mid << b + right << c at t = 2**w, and shift, where
    shift[c + 1] is the product's s_c."""
    # A letter sets its column's shift to at least s_mid - 1, so no shift
    # falls below -len(letters): the borders' shift never raises s.
    border = -len(letters) - 2
    shift = [border] + [0] * (n - 1) + [border]
    steps = []
    for e in letters:
        r = abs(e)
        left, mid, right = shift[r - 1], shift[r], shift[r + 1]
        if e > 0:  # sigma_i: t*(left - mid) + right
            s = max(left - 1, mid - 1, right)
            steps.append((r, (s + 1 - left) * w, (s + 1 - mid) * w, (s - right) * w))
        else:  # its inverse: left + (right - mid)/t
            s = max(left, mid + 1, right + 1)
            steps.append((r, (s - left) * w, (s - 1 - mid) * w, (s - 1 - right) * w))
        shift[r] = s
    return steps, shift


def _product_row(i: int, n: int, steps: list[tuple[int, int, int, int]]) -> list[int]:
    """Row i of the product of the steps' letters: column c packed at index
    c + 1, between the two zero borders."""
    row = [0] * (n + 1)
    row[i + 1] = 1
    # Right-multiplying by a generator only rewrites one column of each row.
    for r, a, b, c in steps:
        row[r] = (row[r - 1] << a) - (row[r] << b) + (row[r + 1] << c)
    return row


def _packed_difference(
    word: BraidWord, cut: int
) -> tuple[list[dict[int, tuple[Sequence[int], int]]], list[dict[int, int]], int]:
    """Y - X^-1, X the first cut letters of the word and Y the rest: its
    rows, {column: (digits, low)} for each nonzero entry, the same entries
    packed, and their slot width in bytes; no rows for one strand."""
    n, letters = word.strand_count, word.letters
    tail, inverse_head = letters[cut:], tuple(-e for e in reversed(letters[:cut]))
    width = slot_width(max(map(add, _column_bounds(n, tail), _column_bounds(n, inverse_head))))
    w = 8 * width
    y_steps, y_shift = _letter_steps(n, tail, w)
    x_steps, x_shift = _letter_steps(n, inverse_head, w)
    # A column no letter rewrites is the identity's in both products, so
    # zero in the difference; the others are taken at the larger shift.
    touched = {abs(e) for e in letters}
    columns = []
    for r in sorted(touched):
        s = max(y_shift[r], x_shift[r])
        columns.append((r, (s - y_shift[r]) * w, (s - x_shift[r]) * w, -s))
    rows, packed = [], []
    for i in range(n - 1):
        row, values = {}, {}
        rows.append(row)
        packed.append(values)
        if touched.isdisjoint((i, i + 1, i + 2)):
            continue  # no letter reads row i's one entry: zero in the difference
        y, x = _product_row(i, n, y_steps), _product_row(i, n, x_steps)
        for r, a, b, low in columns:
            v = (y[r] << a) - (x[r] << b)
            if v:
                values[r - 1] = v
                row[r - 1] = (kronecker_digits(v, width), low)
    return rows, packed, width


def _cut(word: BraidWord) -> int:
    """The number of letters alexander_polynomial takes as X: half the word
    on orders up to EXPANSION_MAX, else none."""
    return len(word.letters) // 2 if word.strand_count - 1 <= EXPANSION_MAX else 0


def burau_reduced(word: BraidWord) -> tuple[tuple[LaurentPolynomial, ...], ...]:
    """Dense product of the reduced Burau generator matrices over the letters.

    Respects concatenation: burau(ab) = burau(a) * burau(b).  Requires at
    least two strands.
    """
    n, letters = word.strand_count, word.letters
    if n < 2:
        raise ValueError("reduced Burau needs n >= 2")
    width = slot_width(max(_column_bounds(n, letters)))
    steps, shift = _letter_steps(n, letters, 8 * width)
    return tuple(
        tuple(
            kronecker_unpack(v, width, -s)
            for v, s in zip(_product_row(i, n, steps)[1:n], shift[1:n])
        )
        for i in range(n - 1)
    )


def alexander_polynomial(word: BraidWord) -> LaurentPolynomial:
    """One-variable Alexander polynomial of the closure, normalized so the
    lowest exponent is 0 and the leading coefficient is positive.

    Computed as det(Y - X^-1), which is det(burau(w) - I) up to a unit,
    divided exactly by 1 + t + ... + t^(n-1).  Split closures give the zero
    polynomial; the one-strand word gives 1.
    """
    det = digits_determinant(*_packed_difference(word, _cut(word)))
    return _normalize(det.exact_div(geometric_sum(word.strand_count)))


def _normalize(p: LaurentPolynomial) -> LaurentPolynomial:
    p = p.shifted(-p.low)
    return -p if p and p.terms[-1] < 0 else p


def determinant_from_burau(word: BraidWord) -> int:
    """Signed Alexander value at t = -1 (the Burau route to the determinant)."""
    return alexander_polynomial(word).evaluate(-1)
