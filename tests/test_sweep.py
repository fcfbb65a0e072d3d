import re
from functools import cmp_to_key
from math import gcd

import pytest
from hypothesis import given, strategies as st

from braidlink import geometry
from braidlink.braids import braid_text, components_of_antipodal_closure, exponent_sum
from braidlink.fixtures import (
    infinity_half_braid,
    reference_braids,
)
from braidlink.geometry import (
    Point3,
    SmoothingChoice,
    SpaceLine,
    apply_smoothing,
    build_configuration,
    half_turn_order,
    project_crossings,
    project_line,
    OXY,
)
from braidlink.invariants import full_report
from braidlink.sweep import SweepError, strand_orders, sweep_full_turn, sweep_half_turn


@pytest.fixture(scope="module")
def lines():
    return build_configuration()


@pytest.fixture(scope="module")
def oxy_events(lines):
    return project_crossings(lines, OXY)


def test_half_turn_reproduces_reference_word(lines, oxy_events):
    smoothed = apply_smoothing(oxy_events, SmoothingChoice.paper())
    half = sweep_half_turn(lines, smoothed)
    assert half == infinity_half_braid()
    assert len(half.letters) == 29


def test_full_turn_equals_reference_braid(lines, oxy_events):
    smoothed = apply_smoothing(oxy_events, SmoothingChoice.paper())
    full = sweep_full_turn(lines, smoothed)
    assert full == reference_braids().infinity
    assert full_report(full) == full_report(reference_braids().infinity)


def test_variant_sweep_is_all_positive(lines, oxy_events):
    smoothed = apply_smoothing(oxy_events, SmoothingChoice.all_positive())
    word = sweep_full_turn(lines, smoothed)
    assert all(e > 0 for e in word.letters)
    assert word == reference_braids().infinity_all_positive


def test_q0_choice_toggles_exponent_sum_by_two_per_half_turn(lines, oxy_events):
    paper = sweep_half_turn(lines, apply_smoothing(oxy_events, SmoothingChoice.paper()))
    variant = sweep_half_turn(
        lines, apply_smoothing(oxy_events, SmoothingChoice.all_positive())
    )
    assert exponent_sum(variant) - exponent_sum(paper) == 2


def test_strand_order_at_start(lines):
    projected = [project_line(line, OXY) for line in lines]
    [order] = strand_orders(projected, [(1, 0)])
    # just before horizontal: positive ray outward, infinity, negative ray
    assert order == ["l'3", "l'0", "l0", "l3", "L'", "l1", "l2", "l'2", "l'1"]


def test_sweep_rejects_unresolved_double_points(lines, oxy_events):
    with pytest.raises(SweepError):
        sweep_half_turn(lines, oxy_events)


# Each edit of the smoothed Oxy events breaks one genericity condition of the
# sweep: events[0] is the ("l'1", "l'2") crossing at (1, 0), whose strand order
# there is l'3 l'0 l0 l3 L' l1 l2 l'2 l'1, and events[2] is the triple with L'.
NON_GENERIC_EDITS = {
    "at-origin": (
        lambda events: [events[0].replace(angle=None), *events[1:]],
        "event at the scan origin cannot be swept",
    ),
    "listed-twice": (
        lambda events: [*events, events[0]],
        "overlapping simultaneous events at direction (1, 0)",
    ),
    "not-adjacent": (
        lambda events: [events[0].replace(labels=("l'1", "l'3")), *events[1:]],
        "event strands not adjacent at direction (1, 0)",
    ),
    "triple-middle": (
        lambda events: [*events[:2], events[2].replace(labels=("l0", "l3", "L'")), *events[3:]],
        "triple crossing without the infinity strand in the middle",
    ),
}


@pytest.mark.parametrize("name", list(NON_GENERIC_EDITS))
def test_sweep_rejects_non_generic_events(lines, oxy_events, name):
    smoothed = apply_smoothing(oxy_events, SmoothingChoice.paper())
    assert smoothed[0].labels == ("l'1", "l'2") and smoothed[0].angle == (1, 0)
    assert smoothed[2].kind == "at_infinity" and smoothed[2].labels == ("l1", "l3", "L'")
    edit, message = NON_GENERIC_EDITS[name]
    with pytest.raises(SweepError, match=re.escape(message)):
        sweep_half_turn(lines, edit(smoothed))


def test_sweep_rejects_a_line_that_meets_the_axis(lines):
    # m passes through (0, 0, 7) on L, so its Oxy image passes through the origin
    with_m = lines + (SpaceLine("m", Point3(0, 0, 7), Point3(1, 2, 5)),)
    events = apply_smoothing(project_crossings(with_m, OXY), SmoothingChoice.paper())
    projected = [project_line(line, OXY) for line in with_m]
    with pytest.raises(SweepError, match="line m meets the axis L"):
        strand_orders(projected, [(1, 0)])
    with pytest.raises(SweepError, match="line m meets the axis L"):
        sweep_half_turn(with_m, events)


# Full-turn words of the paper smoothing from other start directions: the
# same closed diagram cut at another page.  Pinned letter for letter, so a
# sweep that scans some direction with the wrong orientation (the strand
# order at -d is the reverse of that at d) shows as a changed word.
WORDS_FROM_OTHER_STARTS = {
    (1, 1): "B9 2 4 5 4 7 3 6 1 4 5 4 8 3 6 2 4 5 4 7 3 6 1 4 5 4 8 -7 3 6 "
            "7 5 4 5 2 6 3 8 5 4 5 1 6 3 7 5 4 5 2 6 3 8 5 4 5 1 -2 6 3",
    (0, 1): "B9 1 4 5 4 8 3 6 2 4 5 4 7 3 6 1 4 5 4 8 -7 3 6 2 4 5 4 7 3 6 "
            "8 5 4 5 1 6 3 7 5 4 5 2 6 3 8 5 4 5 1 -2 6 3 7 5 4 5 2 6 3",
    (-1, 1): "B9 2 4 5 4 7 3 6 1 4 5 4 8 -7 3 6 2 4 5 4 7 3 6 1 4 5 4 8 3 6 "
             "7 5 4 5 2 6 3 8 5 4 5 1 -2 6 3 7 5 4 5 2 6 3 8 5 4 5 1 6 3",
    (2, 1): "B9 3 6 2 4 5 4 7 3 6 1 4 5 4 8 3 6 2 4 5 4 7 3 6 1 4 5 4 8 -7 "
            "6 3 7 5 4 5 2 6 3 8 5 4 5 1 6 3 7 5 4 5 2 6 3 8 5 4 5 1 -2",
    (1, -3): "B9 3 6 2 4 5 4 7 3 6 1 4 5 4 8 -2 3 6 2 4 5 4 7 3 6 1 4 5 4 8 "
             "6 3 7 5 4 5 2 6 3 8 5 4 5 1 -7 6 3 7 5 4 5 2 6 3 8 5 4 5 1",
}


@pytest.mark.parametrize(
    "start", list(WORDS_FROM_OTHER_STARTS), ids=lambda s: f"{s[0]},{s[1]}"
)
def test_sweep_from_other_start_gives_the_same_closure(lines, oxy_events, start):
    smoothed = apply_smoothing(oxy_events, SmoothingChoice.paper())
    base = sweep_full_turn(lines, smoothed)
    rotated = sweep_full_turn(lines, smoothed, start=start)
    assert braid_text(rotated) == WORDS_FROM_OTHER_STARTS[start]
    # same closed diagram cut at a different page: same letter multiset and
    # closure invariants (the words differ by triple-point and far moves)
    assert sorted(rotated.letters) == sorted(base.letters)
    report_base, report_rotated = full_report(base), full_report(rotated)
    assert report_rotated.determinant == report_base.determinant
    assert report_rotated.component_count == report_base.component_count
    assert report_rotated.linking == report_base.linking
    assert report_rotated.exponent_sum == report_base.exponent_sum


# -- the direction order against the comparator it replaced -------------------
# The sweep once ordered directions with this comparator through cmp_to_key;
# it stays here as the oracle for geometry.half_turn_order.


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1]


def _half_turn_representative(d, start):
    """The representative of +-d whose angle from start lies in [0, pi)."""
    cross = _cross(start, d)
    if cross > 0 or (cross == 0 and _dot(start, d) > 0):
        return d
    return (-d[0], -d[1])


def _angle_compare(start):
    """Order of start-relative half-turn representatives: the start class
    first, then increasing angle over the half turn."""

    def compare(d1, d2):
        if d1 == d2:
            return 0
        if _cross(start, d1) == 0:
            return -1
        if _cross(start, d2) == 0:
            return 1
        return -1 if _cross(d1, d2) > 0 else 1

    return compare


def _primitive(d):
    g = gcd(*d)
    return (d[0] // g, d[1] // g)


small = st.integers(min_value=-7, max_value=7)
nonzero_vectors = st.tuples(small, small).filter(lambda d: d != (0, 0))


@given(nonzero_vectors, st.lists(nonzero_vectors.map(_primitive), max_size=12))
def test_direction_order_matches_the_comparator_oracle(start, directions):
    # the start's own class, its negative and antiparallel pairs always occur
    own = _primitive(start)
    directions = directions + [own, (-own[0], -own[1])]
    directions += [(-d[0], -d[1]) for d in directions[:2]]
    order = half_turn_order(directions, start)
    reps = {}
    for d in directions:
        rep, key = order[d]
        assert rep == _half_turn_representative(d, start)
        assert reps.setdefault(rep, key) == key
    by_key = sorted(reps, key=reps.__getitem__)
    assert by_key == sorted(reps, key=cmp_to_key(_angle_compare(start)))
    assert by_key[0] == own


# -- the axis braid from the same sweep, in a chart that swaps L and L' --------
# The projective map [x:y:z:w] -> [z:w:x:y] is an even permutation of the
# coordinates, so it preserves orientation, and it exchanges the z-axis L
# with the line at infinity L' of the planes z = const.  In the chart it is
# (x, y, z) -> (z/y, 1/y, x/y), scaled by 3 so that the eight double points
# stay integral.  Sweeping the image configuration makes L the ninth strand:
# the braid the repository names after the vertical axis.


def swap_axis_and_infinity(p):
    coordinates = (3 * p.z, 3, 3 * p.x)
    assert all(c % p.y == 0 for c in coordinates)
    return Point3(*(c // p.y for c in coordinates))


@pytest.mark.parametrize(
    "smoothing, name",
    [(SmoothingChoice.paper(), "axis"), (SmoothingChoice.all_positive(), "axis_all_positive")],
    ids=["paper", "all-positive"],
)
def test_axis_braid_from_the_swapped_chart(monkeypatch, smoothing, name):
    points = {label: swap_axis_and_infinity(p) for label, p in geometry.base_points().items()}
    assert points["p0"] == Point3(3, -3, -9) and points["q0"] == Point3(3, 3, 9)
    assert points["p1"] == Point3(-1, 1, 1)
    # the double points keep their names, so a smoothing resolves the same ones
    monkeypatch.setattr(geometry, "base_points", lambda: points)
    swapped = build_configuration()
    events = apply_smoothing(project_crossings(swapped, OXY), smoothing)
    word = sweep_full_turn(swapped, events)
    points_at = (-1, 2, 3, 5)
    stored = getattr(reference_braids(), name)
    assert full_report(word, points_at) == full_report(stored, points_at)
    half = sweep_half_turn(swapped, events)
    anti = components_of_antipodal_closure(half)
    assert sorted(len(anti.strands_in(c)) for c in range(anti.component_count)) == [1, 8]


def test_sweep_word_text(lines, oxy_events):
    smoothed = apply_smoothing(oxy_events, SmoothingChoice.paper())
    assert braid_text(sweep_half_turn(lines, smoothed)) == (
        "B9 1 4 5 4 8 -2 3 6 2 4 5 4 7 3 6 1 4 5 4 8 3 6 2 4 5 4 7 3 6"
    )
