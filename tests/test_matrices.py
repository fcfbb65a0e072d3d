import itertools
import random

import pytest

from braidlink.laurent import ONE, ZERO, LaurentPolynomial
from braidlink.matrices import (
    IntegerMatrix,
    bareiss_determinant_int,
    bareiss_determinant_laurent,
)


def naive_det(rows):
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def test_small_determinants():
    assert bareiss_determinant_int([]) == 1
    assert bareiss_determinant_int([[7]]) == 7
    assert bareiss_determinant_int([[1, 2], [3, 4]]) == -2
    assert bareiss_determinant_int([[0, 1], [1, 0]]) == -1


def test_determinant_matches_permutation_expansion():
    rng = random.Random(7)
    for n in (2, 3, 4, 5):
        for _ in range(30):
            rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            assert bareiss_determinant_int([r[:] for r in rows]) == naive_det(rows)


def test_determinant_needs_square():
    with pytest.raises(ValueError):
        bareiss_determinant_int([[1, 2, 3], [4, 5, 6]])


def test_singular_matrix():
    assert bareiss_determinant_int([[1, 2], [2, 4]]) == 0
    assert bareiss_determinant_int([[0, 0], [1, 1]]) == 0


def test_laurent_determinant():
    t = LaurentPolynomial({1: 1})
    one = ONE
    rows = [[t, one], [one, t]]
    assert bareiss_determinant_laurent(rows) == LaurentPolynomial({0: -1, 2: 1})
    assert bareiss_determinant_laurent([[ZERO, one], [one, ZERO]]) == -one
    assert bareiss_determinant_laurent([]) == ONE


def test_laurent_determinant_matches_integer_specialization():
    rng = random.Random(11)
    for n in (2, 3, 4):
        for _ in range(20):
            entries = [
                [
                    LaurentPolynomial(
                        {e: rng.randint(-3, 3) for e in range(rng.randint(0, 2))}
                    )
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
            det = bareiss_determinant_laurent([row[:] for row in entries])
            for x in (-1, 2):
                ints = [[p.evaluate(x) for p in row] for row in entries]
                assert det.evaluate(x) == bareiss_determinant_int(ints)


def test_integer_matrix_type():
    m = IntegerMatrix.from_rows([[0, 1], [-1, 2]])
    assert m.nrows == m.ncols == 2
    assert m.transpose().rows == ((0, -1), (1, 2))
    assert m.symmetrized().rows == ((0, 0), (0, 4))
    assert m.determinant() == 1


def test_integer_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        IntegerMatrix(((0, 1), (2,)))
    with pytest.raises(TypeError):
        IntegerMatrix(((0.5,),))
