from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from braidlink.geometry import (
    INFINITY_LABEL,
    SmoothingChoice,
    _handedness,
    apply_smoothing,
    base_points,
    build_configuration,
    cross,
    crossings_json,
    project_crossings,
    project_line,
    rotate_quarter_turn,
    smoothing_named,
    upper_half_primitive,
    OXY,
    OXZ,
    Point3,
    Projection,
    SpaceLine,
)
from braidlink.svg import _line_segments, emit_projection_svg
from braidlink.sweep import sweep_full_turn


def rotate_line(line, new_label):
    """The line turned by the quarter turn around the z-axis."""
    d = line.direction
    return SpaceLine(new_label, rotate_quarter_turn(line.base), Point3(-d.y, d.x, d.z))


def angular_momentum(line):
    """The constant value of x dy - y dx along the line; positive exactly
    when the polar angle increases along the orientation."""
    return line.base.x * line.direction.y - line.base.y * line.direction.x


def lines_by_label():
    return {line.label: line for line in build_configuration()}


def on_line(line, point):
    d = line.direction
    b = line.base
    if d.x != 0:
        t = Fraction(point.x - b.x, d.x)
    elif d.y != 0:
        t = Fraction(point.y - b.y, d.y)
    else:
        t = Fraction(point.z - b.z, d.z)
    return (
        b.x + t * d.x == point.x
        and b.y + t * d.y == point.y
        and b.z + t * d.z == point.z
    )


def test_rotation_orbit_of_base_points():
    points = base_points()
    assert points["p0"] == Point3(Fraction(3), Fraction(-1), Fraction(-1))
    assert points["q0"] == Point3(Fraction(3), Fraction(1), Fraction(1))
    assert points["p1"] == Point3(Fraction(1), Fraction(3), Fraction(-1))
    assert points["q1"] == Point3(Fraction(-1), Fraction(3), Fraction(1))
    # the quarter turn has order four
    p = points["p0"]
    for _ in range(4):
        p = rotate_quarter_turn(p)
    assert p == points["p0"]


def test_configuration_incidences():
    lines = lines_by_label()
    points = base_points()
    for k in range(4):
        assert on_line(lines[f"l{k}"], points[f"p{k}"])
        assert on_line(lines[f"l{k}"], points[f"q{k}"])
        assert on_line(lines[f"l'{k}"], points[f"p{k}"])
        assert on_line(lines[f"l'{k}"], points[f"q{(k + 1) % 4}"])


def test_orientation_dz_positive():
    for line in build_configuration():
        assert line.direction.z > 0


def test_angular_form_positive_on_all_lines():
    for line in build_configuration():
        assert angular_momentum(line) > 0


def test_quarter_turn_symmetry_with_label_shift():
    lines = lines_by_label()
    for k in range(4):
        rotated = rotate_line(lines[f"l{k}"], f"l{(k + 1) % 4}")
        target = lines[f"l{(k + 1) % 4}"]
        assert on_line(target, rotated.base)
        d, e = rotated.direction, target.direction
        assert d.x * e.y == d.y * e.x and d.x * e.z == d.z * e.x


def test_oxy_projection_of_l0_is_vertical():
    line = project_line(lines_by_label()["l0"], OXY)
    # x = 3 in the drawing plane
    assert line.base[0] == 3
    assert line.step[0] == 0 and line.step[1] != 0


def test_oxy_crossing_census():
    events = project_crossings(build_configuration(), OXY)
    finite = [e for e in events if e.kind == "finite" and e.double_point is None]
    doubles = [e for e in events if e.double_point is not None]
    triples = [e for e in events if e.kind == "at_infinity"]
    assert len(finite) == 16
    assert len(doubles) == 8
    assert len(triples) == 4
    assert {e.double_point for e in doubles} == {
        "p0", "p1", "p2", "p3", "q0", "q1", "q2", "q3"
    }
    # a position is the homogeneous (x, y, w): these are all integral
    positions = {e.position for e in finite}
    assert (2, 0, 1) in positions
    assert (-2, 0, 1) in positions
    assert (5, 3, 1) in positions
    # all sixteen annotated coordinates, nothing else
    expected = {
        (2, 0), (-2, 0), (0, 2), (0, -2),
        (3, 3), (-3, -3), (-3, 3), (3, -3),
        (5, 3), (-5, -3), (-3, 5), (3, -5),
        (3, 5), (-3, -5), (-5, 3), (5, -3),
    }
    assert positions == {(x, y, 1) for x, y in expected}
    # every honest crossing of this configuration is positive
    assert {e.sign for e in finite} == {1}


def test_crossing_participants():
    events = project_crossings(build_configuration(), OXY)
    at = {e.position: e for e in events if e.position is not None}
    assert set(at[(5, 3, 1)].labels) == {"l1", "l'3"}
    assert set(at[(2, 0, 1)].labels) == {"l'0", "l'3"}
    assert at[(3, 1, 1)].double_point == "q0"


def test_infinity_triples_have_direction_classes():
    events = project_crossings(build_configuration(), OXY)
    triples = [e for e in events if e.kind == "at_infinity"]
    assert {e.angle for e in triples} == {(1, 0), (0, 1), (1, 1), (-1, 1)}
    for e in triples:
        assert INFINITY_LABEL in e.labels
        assert len(e.labels) == 3


def test_infinity_is_a_strand_only_in_a_view_along_z():
    # L' is the common line at infinity of the planes z = const
    assert OXY.infinity_is_strand
    assert not OXZ.infinity_is_strand
    assert not Projection("yz", ("y", "z"), "x").infinity_is_strand


@pytest.mark.parametrize("smoothing", [None, "paper", "all-positive"])
@pytest.mark.parametrize("projection", [OXY, OXZ], ids=["oxy", "oxz"])
def test_kind_agrees_with_position(projection, smoothing):
    # an event is at infinity exactly when its two images are parallel
    steps = {line.label: project_line(line, projection).step for line in build_configuration()}
    events = project_crossings(build_configuration(), projection)
    if smoothing is not None:
        events = apply_smoothing(events, smoothing_named(smoothing))
    assert {e.kind for e in events} == {"finite", "at_infinity"}
    for e in events:
        parallel = cross(steps[e.labels[0]], steps[e.labels[1]]) == 0
        assert e.kind == ("at_infinity" if parallel else "finite")
        assert (e.kind == "finite") == (e.position is not None)


def test_oxz_projection():
    events = project_crossings(build_configuration(), OXZ)
    doubles = [e for e in events if e.double_point is not None]
    triples = [e for e in events if e.kind == "at_infinity"]
    finite = [e for e in events if e.kind == "finite" and e.double_point is None]
    assert len(doubles) == 8
    assert len(triples) == 3  # three parallel classes in this view
    assert len(finite) == 17
    # over/under comes from the y comparison in this view
    for e in finite:
        assert e.over in e.labels


def test_smoothing_choices():
    paper = SmoothingChoice.paper()
    assert paper.resolution["q0"] == -1
    assert all(paper.resolution[p] == 0 for p in paper.resolution if p != "q0")
    variant = smoothing_named("all-positive")
    assert variant.resolution["q0"] == 1
    with pytest.raises(ValueError):
        SmoothingChoice({"q0": -1})
    with pytest.raises(ValueError):
        SmoothingChoice({name: 5 for name in paper.resolution})


def test_apply_smoothing_paper_choice():
    events = project_crossings(build_configuration(), OXY)
    smoothed = apply_smoothing(events, SmoothingChoice.paper())
    crossings = [e for e in smoothed if e.kind == "finite"]
    assert len(crossings) == 17  # sixteen honest ones plus q0
    q0 = [e for e in crossings if e.double_point == "q0"]
    assert len(q0) == 1
    assert q0[0].sign == -1
    assert q0[0].over in q0[0].labels
    assert not any(e.double_point in {"p0", "p1", "p2", "p3", "q1", "q2", "q3"}
                   for e in smoothed)


def test_apply_smoothing_variant_choice():
    events = project_crossings(build_configuration(), OXY)
    smoothed = apply_smoothing(events, smoothing_named("all-positive"))
    signs = {e.sign for e in smoothed if e.kind == "finite"}
    assert signs == {1}


def test_upper_half_primitive():
    assert upper_half_primitive(4, 2) == (2, 1)
    assert upper_half_primitive(-4, -2) == (2, 1)
    assert upper_half_primitive(3, 0) == (1, 0)
    assert upper_half_primitive(-3, 0) == (1, 0)
    assert upper_half_primitive(3, -2) == (-3, 2)
    with pytest.raises(ValueError):
        upper_half_primitive(0, 0)


def crossings_payload(events, projection):
    """The object crossings_json writes: the oracle, through json.dumps(...,
    indent=2), for its layout."""
    return {
        "schema": "braidlink/crossings/1",
        "projection": projection.name,
        "events": [
            {
                "kind": e.kind,
                "labels": list(e.labels),
                "angle": None if e.angle is None else list(e.angle),
                "position": None if e.position is None else [
                    str(Fraction(c, e.position[2])) for c in e.position[:2]
                ],
                "over": e.over,
                "sign": e.sign,
                "double_point": e.double_point,
            }
            for e in events
        ],
    }


@pytest.mark.parametrize(
    "smoothing", [None, SmoothingChoice.paper(), smoothing_named("all-positive")]
)
@pytest.mark.parametrize("projection", [OXY, OXZ], ids=["oxy", "oxz"])
def test_crossings_json_is_the_indented_json_of_the_events(projection, smoothing):
    import json

    events = project_crossings(build_configuration(), projection)
    if smoothing is not None:
        events = apply_smoothing(events, smoothing)
    for listed in (events, []):
        expected = json.dumps(crossings_payload(listed, projection), indent=2)
        assert crossings_json(listed, projection) == expected


def test_crossings_json_round_trip():
    import json

    events = project_crossings(build_configuration(), OXY)
    payload = json.loads(crossings_json(events, OXY))
    assert payload["schema"] == "braidlink/crossings/1"
    assert payload["projection"] == "oxy"
    assert len(payload["events"]) == 28
    positions = {tuple(e["position"]) for e in payload["events"] if e["position"]}
    assert ("2", "0") in positions
    # exact rational strings, never floats
    for event in payload["events"]:
        if event["position"] is not None:
            for coordinate in event["position"]:
                assert isinstance(coordinate, str)


# -- the arrangement is exact and independent of the line parametrisation -----

def reparametrised(line):
    """The same oriented line with its base moved back by two directions and
    its direction tripled."""
    b, d = line.base, line.direction
    return SpaceLine(
        line.label,
        Point3(b.x - 2 * d.x, b.y - 2 * d.y, b.z - 2 * d.z),
        Point3(3 * d.x, 3 * d.y, 3 * d.z),
    )


SMOOTHINGS = (None, SmoothingChoice.paper(), smoothing_named("all-positive"))


@pytest.mark.parametrize("projection", ["oxy", "oxz"])
def test_arrangement_does_not_depend_on_the_parametrisation(projection):
    lines = build_configuration()
    moved = tuple(reparametrised(line) for line in lines)
    assert project_crossings(moved, projection) == project_crossings(lines, projection)
    for smoothing in SMOOTHINGS:
        assert emit_projection_svg(moved, projection, smoothing) == emit_projection_svg(
            lines, projection, smoothing
        )
    if projection == "oxy":
        events = apply_smoothing(project_crossings(lines, OXY), SmoothingChoice.paper())
        assert sweep_full_turn(moved, events) == sweep_full_turn(lines, events)


def assert_exact(*values):
    for value in values:
        assert type(value) is int, f"{value!r} is not an int"


@pytest.mark.parametrize("projection", [OXY, OXZ], ids=["oxy", "oxz"])
@pytest.mark.parametrize("moved", [False, True], ids=["integral", "moved"])
def test_arrangement_values_are_exact(projection, moved):
    # Only the SVG's output formatting may turn a value into a float.
    lines = build_configuration()
    if moved:
        lines = tuple(reparametrised(line) for line in lines)
    for line in lines:
        projected = project_line(line, projection)
        assert_exact(*projected.base, *projected.step)
        segments = _line_segments(line, projected, projection.tone_axis)
        assert segments
        for _, start, end in segments:
            assert_exact(*start, *end)
    events = project_crossings(lines, projection)
    for smoothing in SMOOTHINGS[1:]:
        for event in [*events, *apply_smoothing(events, smoothing)]:
            if event.position is not None:
                assert_exact(*event.position)


# -- a crossing's sign is the handedness of its two space lines ---------------

# Right-handed views with the depth that the replaced rule compared: the
# depth axis times its sign grows towards the viewer.
DEPTH_VIEWS = {
    "oxy": (OXY, "z", 1),
    "oxz": (OXZ, "y", -1),
    "yz": (Projection("yz", ("y", "z"), "x"), "x", 1),
}


def depth_oracle_sign(a, b, view):
    """The replaced rule: compare the depths of a and b over their crossing
    in the view; +1 exactly when the line that is over is a with a positive
    plane cross product of the images, or b with a negative one.  0 where
    the depths are equal, None where the images are parallel."""
    projection, depth_axis, depth_sign = DEPTH_VIEWS[view]
    pa, pb = project_line(a, projection), project_line(b, projection)
    det = cross(pa.step, pb.step)
    if det == 0:
        return None
    gap = (pb.base[0] - pa.base[0], pb.base[1] - pa.base[1])
    t, u = Fraction(cross(gap, pb.step), det), Fraction(cross(gap, pa.step), det)

    def depth(line, s):
        base, step = getattr(line.base, depth_axis), getattr(line.direction, depth_axis)
        return depth_sign * (base + s * step)

    depth_a, depth_b = depth(a, t), depth(b, u)
    if depth_a == depth_b:
        return 0
    return 1 if (depth_a > depth_b) == (det > 0) else -1


coordinates = st.integers(-6, 6)


@st.composite
def integer_line_pairs(draw):
    """Two integer lines with dz != 0; about half of them meet in space."""

    def point(z=coordinates):
        return Point3(draw(coordinates), draw(coordinates), draw(z))

    a = SpaceLine("a", point(), point(coordinates.filter(bool)))
    if draw(st.booleans()):
        k, d = draw(coordinates), a.direction
        base = Point3(a.base.x + k * d.x, a.base.y + k * d.y, a.base.z + k * d.z)
    else:
        base = point()
    return a, SpaceLine("b", base, point(coordinates.filter(bool)))


@settings(max_examples=400)
@given(integer_line_pairs(), st.sampled_from(sorted(DEPTH_VIEWS)))
def test_crossing_sign_is_the_depth_comparison_sign(pair, view):
    a, b = pair
    expected = depth_oracle_sign(a, b, view)
    assume(expected is not None)  # parallel images cross only at infinity
    assert (_handedness(a, b) == 0) == (expected == 0)
    try:
        [event] = project_crossings(pair, DEPTH_VIEWS[view][0])
    except RuntimeError:  # the lines meet away from the bundled double points
        assert expected == 0
    else:
        assert event.sign == (expected or None)


def test_bundled_crossings_have_one_sign_in_both_views():
    lines = build_configuration()
    signs = [
        {
            frozenset(e.labels): e.sign
            for e in project_crossings(lines, projection)
            if e.kind == "finite" and e.sign is not None
        }
        for projection in (OXY, OXZ)
    ]
    both = signs[0].keys() & signs[1].keys()
    assert len(both) == 14
    assert {pair: signs[0][pair] for pair in both} == {pair: signs[1][pair] for pair in both}
