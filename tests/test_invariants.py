import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidlink.braids import BraidWord, braid_text, parse_braid
import braidlink.invariants
from braidlink.fixtures import reference_braids
from braidlink.invariants import (
    SCHEMA_REPORT,
    RouteMismatchError,
    full_report,
    link_determinant,
    report_json,
)
from braidlink.laurent import LaurentPolynomial
from strategies import braid_words, closure_words


def report_json_dict(word, report):
    """The report as the JSON object report_json writes: the oracle, through
    json.dumps(..., indent=2), for its layout."""
    return {
        "schema": SCHEMA_REPORT,
        "word": braid_text(word),
        "strand_count": report.strand_count,
        "components": report.component_count,
        "exponent_sum": report.exponent_sum,
        "linking": [list(row) for row in report.linking],
        "determinant": report.determinant,
        "alexander": {
            "coefficients": [list(pair) for pair in report.alexander.to_pairs()],
            "evaluations": [list(pair) for pair in report.alexander_at],
        },
    }


def mirror(w):
    return BraidWord(w.strand_count, tuple(-e for e in w.letters))


def test_calibration_values():
    assert link_determinant(BraidWord(2, (1, 1, 1))) == 3       # trefoil
    assert link_determinant(BraidWord(3, (1, -2, 1, -2))) == 5  # figure eight
    assert link_determinant(BraidWord(2, (1, 1))) == 2          # Hopf link
    assert link_determinant(BraidWord(2, (1,))) == 1            # unknot
    assert link_determinant(BraidWord(1, ())) == 1
    assert link_determinant(BraidWord(2, ())) == 0              # 2-component unlink


def test_reference_determinants():
    braids = reference_braids()
    assert link_determinant(braids.axis) == 64
    assert link_determinant(braids.infinity) == 0


def test_variant_regression_values():
    # no negative letters; determinants recorded when first computed
    braids = reference_braids()
    assert all(e > 0 for e in braids.axis_all_positive.letters)
    assert all(e > 0 for e in braids.infinity_all_positive.letters)
    assert link_determinant(braids.axis_all_positive) == 0
    assert link_determinant(braids.infinity_all_positive) == 0


@settings(max_examples=100)
@given(braid_words(max_strands=5, max_len=14))
def test_mirror_invariance(w):
    assert link_determinant(mirror(w)) == link_determinant(w)


def test_full_report_simple():
    report = full_report(BraidWord(2, (1,)))
    assert report.component_count == 1
    assert report.determinant == 1
    assert report.alexander_at == ((-1, 1),)


def test_full_report_reference():
    braids = reference_braids()
    report = full_report(braids.axis)
    assert report.strand_count == 9
    assert report.component_count == 3
    assert report.exponent_sum == 54
    assert report.determinant == 64
    assert report.linking == ((0, 12, 4), (12, 0, 4), (4, 4, 0))
    report_inf = full_report(braids.infinity)
    assert report_inf.determinant == 0
    assert report_inf.linking == report.linking


def test_cross_validation_fields_agree():
    report = full_report(BraidWord(3, (1, 2, 1, 2)))
    assert abs(report.determinant_goeritz) == abs(report.determinant_burau)


def test_extra_alexander_points():
    report = full_report(BraidWord(2, (1, 1, 1)), alexander_points=(-1, 2, -2))
    values = dict(report.alexander_at)
    assert values[-1] == 3
    assert values[2] == 3   # 1 - 2 + 4
    assert values[-2] == 7  # 1 + 2 + 4


def test_report_json_shape_and_determinism():
    word = parse_braid("B2 1 1 1")
    report = full_report(word)
    text_one = report_json(word, report)
    text_two = report_json(word, full_report(word))
    assert text_one == text_two
    payload = json.loads(text_one)
    assert list(payload) == [
        "schema",
        "word",
        "strand_count",
        "components",
        "exponent_sum",
        "linking",
        "determinant",
        "alexander",
    ]
    assert payload["schema"] == "braidlink/report/1"
    assert payload["word"] == "B2 1 1 1"
    assert payload["determinant"] == 3
    assert payload["alexander"]["coefficients"] == [[0, 1], [1, -1], [2, 1]]
    assert payload["alexander"]["evaluations"] == [[-1, 3]]


def test_report_dict_linking_rows_are_lists():
    word = parse_braid("B2 1 1")
    payload = json.loads(report_json(word, full_report(word)))
    assert payload["linking"] == [[0, 1], [1, 0]]


@settings(max_examples=150, deadline=None)
@given(
    closure_words(max_strands=7, max_len=40),
    st.lists(st.integers(min_value=-(10**30), max_value=10**30), max_size=3),
)
def test_report_json_is_the_indented_json_of_the_report(drawn, points):
    # Split words give empty coefficients; the points add evaluations.
    word, _ = drawn
    report = full_report(word, (-1, *points))
    assert report_json(word, report) == json.dumps(report_json_dict(word, report), indent=2)


@pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 4400,
    reason="no integer string conversion limit below 4400 digits",
)
def test_report_json_refuses_an_integer_past_the_str_limit():
    word = BraidWord(2, (1, 1, 1))
    report = full_report(word, (-1, 10**2200))  # t^2 - t + 1 there has 4401 digits
    with pytest.raises(ValueError):
        report_json(word, report)


def test_asymmetric_alexander_polynomial_raises():
    # Adding t(1 + t) keeps the value 3 at -1, so only the symmetry check sees it.
    trefoil = BraidWord(2, (1, 1, 1))
    wrong = LaurentPolynomial(0, (1, 0, 2))
    assert wrong.evaluate(-1) == 3
    with pytest.raises(RouteMismatchError, match="not symmetric"):
        full_report(trefoil, alexander=wrong)
    hopf = full_report(BraidWord(2, (1, 1)))
    assert hopf.alexander.terms == (-1, 1)  # read backwards it is its negative


def test_route_mismatch_raises_everywhere(monkeypatch):
    monkeypatch.setattr(
        braidlink.invariants, "goeritz_determinant", lambda word: 4
    )
    trefoil = BraidWord(2, (1, 1, 1))
    with pytest.raises(RouteMismatchError, match="goeritz route gave 4"):
        link_determinant(trefoil)
    with pytest.raises(RouteMismatchError, match="burau route gave 3"):
        full_report(trefoil)


def test_report_computes_alexander_polynomial_once(monkeypatch):
    calls = []
    original = braidlink.invariants.alexander_polynomial

    def counted(word):
        calls.append(word)
        return original(word)

    monkeypatch.setattr(braidlink.invariants, "alexander_polynomial", counted)
    word = reference_braids().axis
    report_json(word, full_report(word, alexander_points=(-1, 2)))
    assert len(calls) == 1
