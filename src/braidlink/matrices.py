"""Exact matrices: arbitrary-precision integer matrices and fraction-free
determinants (Bareiss elimination), for plain integers and for Laurent
polynomial entries.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .laurent import ONE, ZERO, LaurentPolynomial


def bareiss_determinant_int(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    if n == 0:
        return 1
    a = [list(map(int, r)) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def bareiss_determinant_laurent(
    rows: list[list[LaurentPolynomial]],
) -> LaurentPolynomial:
    """Determinant over Z[t, 1/t]; Bareiss divisions are exact in the ring."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    if n == 0:
        return ONE
    a = [list(r) for r in rows]
    sign = 1
    prev = ONE
    for k in range(n - 1):
        if a[k][k].is_zero:
            for i in range(k + 1, n):
                if not a[i][k].is_zero:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return ZERO
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = num.exact_div(prev)
        prev = a[k][k]
    result = a[n - 1][n - 1]
    return result if sign == 1 else -result


@dataclass(frozen=True)
class IntegerMatrix:
    """Immutable exact integer matrix."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        width = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != width:
                raise ValueError("ragged rows")
            for v in r:
                if not isinstance(v, int):
                    raise TypeError("entries must be int")

    @staticmethod
    def from_rows(rows) -> "IntegerMatrix":
        return IntegerMatrix(tuple(tuple(int(v) for v in r) for r in rows))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def transpose(self) -> "IntegerMatrix":
        return IntegerMatrix(tuple(zip(*self.rows))) if self.rows else self

    def __add__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")
        return IntegerMatrix(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            )
        )

    def symmetrized(self) -> "IntegerMatrix":
        """self + transpose(self)."""
        return self + self.transpose()

    def determinant(self) -> int:
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        return bareiss_determinant_int([list(r) for r in self.rows])

