import random

from hypothesis import given, settings

from braidlink.braids import BraidWord
from braidlink.burau import alexander_polynomial, determinant_from_burau
from braidlink.laurent import ZERO, LaurentPolynomial
from braidlink.matrices import bareiss_determinant_laurent
from braidlink.seifert import seifert_matrix, symmetrized_determinant
from strategies import braid_words


def seifert_alexander_rows(data):
    """Rows of V - t*V^T as Laurent polynomials (the Seifert route to the
    Alexander polynomial, the oracle the Burau route is checked against)."""
    v = data.matrix.rows
    m = len(v)
    return [
        [LaurentPolynomial({0: v[i][j], 1: -v[j][i]}) for j in range(m)]
        for i in range(m)
    ]


def normalized(p):
    if p.is_zero:
        return p
    p = p.shifted(-p.min_exp)
    if p.coefficient(p.max_exp) < 0:
        p = -p
    return p


def seifert_route_polynomial(word):
    data = seifert_matrix(word)
    if data.split:
        return ZERO
    return normalized(bareiss_determinant_laurent(seifert_alexander_rows(data)))


# -- golden matrices -----------------------------------------------------------

def test_trefoil_matrix():
    data = seifert_matrix(BraidWord(2, (1, 1, 1)))
    assert data.matrix.rows == ((-1, 1), (0, -1))
    assert data.basis_loops == ((1, 0), (1, 1))
    assert not data.split
    assert abs(symmetrized_determinant(data)) == 3


def test_figure_eight_matrix():
    data = seifert_matrix(BraidWord(3, (1, -2, 1, -2)))
    assert data.matrix.rows == ((-1, -1), (0, 1))
    assert abs(symmetrized_determinant(data)) == 5


def test_hopf_and_unknots():
    assert abs(symmetrized_determinant(seifert_matrix(BraidWord(2, (1, 1))))) == 2
    assert abs(symmetrized_determinant(seifert_matrix(BraidWord(1, ())))) == 1
    assert abs(symmetrized_determinant(seifert_matrix(BraidWord(2, (1,))))) == 1


def test_split_detection():
    unlink = seifert_matrix(BraidWord(2, ()))
    assert unlink.split
    assert symmetrized_determinant(unlink) == 0
    # trefoil plus a distant unknot: column 2 empty
    data = seifert_matrix(BraidWord(3, (1, 1, 1)))
    assert data.split
    assert symmetrized_determinant(data) == 0
    assert not seifert_matrix(BraidWord(1, ())).split


def test_loop_count_and_order():
    data = seifert_matrix(BraidWord(3, (2, 1, 2, 1, 1)))
    # column-major: column 1 has 3 letters (2 loops), column 2 has 2 (1 loop)
    assert data.basis_loops == ((1, 0), (1, 1), (2, 0))


def test_mixed_sign_loop_has_zero_self_pairing():
    data = seifert_matrix(BraidWord(2, (1, -1, 1)))
    assert data.matrix.rows[0][0] == 0
    assert data.matrix.rows[1][1] == 0


# -- dual-route agreement --------------------------------------------------------

@settings(max_examples=150)
@given(braid_words())
def test_symmetrized_determinant_matches_burau(w):
    assert abs(symmetrized_determinant(seifert_matrix(w))) == abs(
        determinant_from_burau(w)
    )


@settings(max_examples=80)
@given(braid_words(max_strands=5, max_len=14))
def test_seifert_polynomial_matches_burau(w):
    assert seifert_route_polynomial(w) == alexander_polynomial(w)


def test_dual_route_agreement_seeded_corpus():
    rng = random.Random(424242)
    for _ in range(800):
        n = rng.randint(2, 6)
        k = rng.randint(0, 20)
        w = BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(k)))
        assert abs(symmetrized_determinant(seifert_matrix(w))) == abs(
            determinant_from_burau(w)
        )


def test_reference_values():
    from braidlink.fixtures import reference_braids

    braids = reference_braids()
    assert abs(symmetrized_determinant(seifert_matrix(braids.axis))) == 64
    assert abs(symmetrized_determinant(seifert_matrix(braids.infinity))) == 0
