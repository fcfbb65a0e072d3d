"""The Goeritz route to the determinant agrees with the Seifert form, now the
oracle of the integer route, and with the Burau route's Alexander value at -1."""

import pytest
from hypothesis import given, settings

from braidlink.braids import BraidWord
from braidlink.burau import alexander_polynomial
from braidlink.fixtures import reference_braids
from braidlink.goeritz import goeritz_determinant
from braidlink.seifert import seifert_matrix, symmetrized_determinant
from strategies import closure_words


def assert_routes_agree(word):
    det = abs(goeritz_determinant(word))
    assert det == abs(symmetrized_determinant(seifert_matrix(word)))
    assert det == abs(alexander_polynomial(word).evaluate(-1))
    return det


@settings(deadline=None, max_examples=300)
@given(closure_words())
def test_goeritz_matches_seifert_oracle_and_burau(drawn):
    word, kind = drawn
    det = assert_routes_agree(word)
    if kind in ("split", "empty"):
        assert det == 0
    if kind == "one-strand":
        assert det == 1


@pytest.mark.parametrize(
    "name", ["axis", "infinity", "axis_all_positive", "infinity_all_positive"]
)
def test_goeritz_on_the_reference_braids(name):
    expected = {"axis": 64}.get(name, 0)
    assert assert_routes_agree(getattr(reference_braids(), name)) == expected


@pytest.mark.parametrize(
    "word, det",
    [
        (BraidWord(1, ()), 1),
        (BraidWord(2, (1,)), 1),  # one letter: its class region is a loop
        (BraidWord(2, (1, 1)), 2),  # Hopf link
        (BraidWord(2, (1, 1, 1)), 3),  # trefoil
        (BraidWord(3, (1, -2, 1, -2)), 5),  # figure eight
        (BraidWord(2, (1,) * 101), 101),  # torus knot T(2, 101)
        (BraidWord(4, (1, 3)), 0),  # column 2 empty: split
    ],
)
def test_goeritz_calibration_values(word, det):
    assert abs(goeritz_determinant(word)) == det
