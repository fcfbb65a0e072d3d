"""The integer arrangement against the Fraction code it replaced.

geometry, sweep and svg once built a Fraction at every division.  That code
stays here as the oracle: the crossing positions and their sort key, the
sweep's strand-order key and direction order, and the SVG's segment and
casing math.  The hypothesis test moves every line to another
parametrisation of itself and requires the crossings JSON, the SVG bytes
and the swept word of the library to equal the oracle's.
"""

import json
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from braidlink import geometry, sweep
from braidlink.geometry import (
    INFINITY_LABEL,
    OXY,
    OXZ,
    Point3,
    SmoothingChoice,
    SpaceLine,
    apply_smoothing,
    build_configuration,
    cross,
    crossings_json,
    project_crossings,
    project_line,
    projection_named,
)
from braidlink.svg import emit_projection_svg
from braidlink.sweep import sweep_full_turn
from test_sweep import swap_axis_and_infinity

# -- the replaced Fraction code ----------------------------------------------


def fraction_half_turn_direction(d, start):
    """The representative of +-d at an angle in [0, pi) from start, and its
    key: -cot of that angle as a Fraction."""
    turn = cross(start, d)
    dot = start[0] * d[0] + start[1] * d[1]
    if turn < 0 or (turn == 0 and dot < 0):
        d, turn, dot = (-d[0], -d[1]), -turn, -dot
    return d, ((0, 0) if turn == 0 else (1, Fraction(-dot, turn)))


def fraction_position(a, b, projection):
    """Where the images of a and b cross, as a pair of Fractions."""
    pa, pb = project_line(a, projection), project_line(b, projection)
    det = cross(pa.step, pb.step)
    gap = (pb.base[0] - pa.base[0], pb.base[1] - pa.base[1])
    n = cross(gap, pb.step)
    x, y = pa.base[0] * det + n * pa.step[0], pa.base[1] * det + n * pa.step[1]
    return (Fraction(x, det), Fraction(y, det))


def event_sort_key(event):
    # the origin crossing first, then by angle from (1, 0)
    slope = (-1,) if event.angle is None else fraction_half_turn_direction(event.angle, (1, 0))[1]
    pos = event.position if event.position is not None else (0, 0)
    return (slope, 0 if event.kind == "finite" else 1, pos, event.labels)


def fraction_events(lines, projection):
    """The library's events with Fraction positions, in the replaced order."""
    by_label = {line.label: line for line in lines}
    events = [
        event.replace(position=fraction_position(*(by_label[x] for x in event.labels), projection))
        if event.kind == "finite"
        else event
        for event in project_crossings(lines, projection)
    ]
    return sorted(events, key=event_sort_key)


def fraction_crossings_json(events, projection):
    payload = {
        "schema": "braidlink/crossings/1",
        "projection": projection_named(projection).name,
        "events": [
            {
                "kind": event.kind,
                "labels": list(event.labels),
                "angle": None if event.angle is None else list(event.angle),
                "position": None
                if event.position is None
                else [str(coordinate) for coordinate in event.position],
                "over": event.over,
                "sign": event.sign,
                "double_point": event.double_point,
            }
            for event in events
        ],
    }
    return json.dumps(payload, indent=2)


def fraction_strand_order(projected, direction):
    clockwise = (direction[1], -direction[0])
    keyed = [((0, 0), INFINITY_LABEL)]
    for line in projected:
        moment = cross(line.base, line.step)
        w = Fraction(-cross(direction, line.step), moment)
        w_tie = Fraction(-cross(clockwise, line.step), moment)
        keyed.append(((w, w_tie), line.label))
    keyed.sort()
    return [label for _, label in keyed]


def fraction_sweep_full_turn(lines, events):
    """The sweep with the Fraction strand-order key and direction order."""
    with mock.patch.object(
        sweep,
        "strand_orders",
        lambda projected, directions: [fraction_strand_order(projected, d) for d in directions],
    ), mock.patch.object(
        sweep,
        "half_turn_order",
        lambda directions, start: {d: fraction_half_turn_direction(d, start) for d in directions},
    ):
        return sweep_full_turn(lines, events)


VIEW = Fraction(7)
SCALE = 40


def _svg_coords(p):
    return (float((p[0] + VIEW) * SCALE), float((VIEW - p[1]) * SCALE))


def _fmt(p):
    x, y = _svg_coords(p)
    return f"{x:.2f},{y:.2f}"


def _point_at(line, t):
    return (line.base[0] + t * line.step[0], line.base[1] + t * line.step[1])


def _tone(line, axis, t):
    coordinate = getattr(line.base, axis) + t * getattr(line.direction, axis)
    return "#000000" if coordinate > 0 else "#999999"


def _clip_parameter_range(line):
    bounds = []
    for axis in (0, 1):
        if line.step[axis] == 0:
            continue
        t1 = Fraction(-VIEW - line.base[axis], line.step[axis])
        t2 = Fraction(VIEW - line.base[axis], line.step[axis])
        bounds.append((min(t1, t2), max(t1, t2)))
    return max(t[0] for t in bounds), min(t[1] for t in bounds)


def fraction_line_segments(line, image, axis):
    lo, hi = _clip_parameter_range(image)
    if lo >= hi:
        return []
    cuts = [lo, hi]
    if getattr(line.direction, axis) != 0:
        t_zero = Fraction(-getattr(line.base, axis), getattr(line.direction, axis))
        if lo < t_zero < hi:
            cuts.insert(1, t_zero)
    return [
        (_tone(line, axis, (a + b) / 2), _point_at(image, a), _point_at(image, b))
        for a, b in zip(cuts, cuts[1:])
    ]


def fraction_svg(lines, projection, smoothing=None):
    projection = projection_named(projection)
    axis = projection.tone_axis
    events = fraction_events(lines, projection)
    if smoothing is not None:
        events = apply_smoothing(events, smoothing)
    size = float(2 * VIEW * SCALE)
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" '
        f'height="{size:.0f}" viewBox="0 0 {size:.0f} {size:.0f}">',
        f'<rect width="{size:.0f}" height="{size:.0f}" fill="#ffffff"/>',
    ]
    drawn = {}
    for line in lines:
        image = project_line(line, projection)
        drawn[line.label] = (line, image)
        out.append(f'<g class="line" id="line-{line.label}">')
        for tone, start, end in fraction_line_segments(line, image, axis):
            out.append(
                f'<polyline points="{_fmt(start)} {_fmt(end)}" fill="none" '
                f'stroke="{tone}" stroke-width="2"/>'
            )
        out.append("</g>")
    gap = Fraction(1, 4)
    for event in events:
        if event.position is None:
            continue
        if event.sign is None:
            cx, cy = _svg_coords(event.position)
            out.append(
                f'<circle class="double-point" cx="{cx:.2f}" cy="{cy:.2f}" '
                f'r="5" fill="#ffffff" stroke="#555555" stroke-dasharray="2,2"/>'
            )
            continue
        line, over = drawn[event.over]
        ux, uy = over.step
        scale = Fraction(gap, max(abs(ux), abs(uy)))
        a = (event.position[0] - ux * scale, event.position[1] - uy * scale)
        b = (event.position[0] + ux * scale, event.position[1] + uy * scale)
        i = 0 if ux != 0 else 1
        tone = _tone(line, axis, Fraction(event.position[i] - over.base[i], over.step[i]))
        out.append(
            f'<g class="crossing"><polyline points="{_fmt(a)} {_fmt(b)}" '
            f'fill="none" stroke="#ffffff" stroke-width="8"/>'
            f'<polyline points="{_fmt(a)} {_fmt(b)}" fill="none" '
            f'stroke="{tone}" stroke-width="2"/></g>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


# -- the library against the oracle ------------------------------------------

SWAPPED_POINTS = {label: swap_axis_and_infinity(p) for label, p in geometry.base_points().items()}
CHARTS = {"bundled": geometry.base_points, "swapped": lambda: SWAPPED_POINTS}
SMOOTHINGS = {
    "none": None,
    "paper": SmoothingChoice.paper(),
    "all-positive": SmoothingChoice.all_positive(),
}


def moved(line, scale, shift):
    """The same oriented line with its direction times scale > 0 and its
    base moved by shift directions."""
    b, d = line.base, line.direction
    return SpaceLine(
        line.label,
        Point3(b.x + shift * d.x, b.y + shift * d.y, b.z + shift * d.z),
        Point3(scale * d.x, scale * d.y, scale * d.z),
    )


def assert_matches_oracle(lines, projection, smoothing):
    events = project_crossings(lines, projection)
    expected = fraction_events(lines, projection)
    if smoothing is not None:
        events, expected = apply_smoothing(events, smoothing), apply_smoothing(expected, smoothing)
    assert crossings_json(events, projection) == fraction_crossings_json(expected, projection)
    assert emit_projection_svg(lines, projection, smoothing) == fraction_svg(
        lines, projection, smoothing
    )
    if smoothing is not None:
        swept = apply_smoothing(project_crossings(lines, OXY), smoothing)
        assert sweep_full_turn(lines, swept) == fraction_sweep_full_turn(lines, swept)


positive_rationals = st.fractions(min_value=Fraction(1, 12), max_value=12, max_denominator=12)
rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)


@pytest.mark.parametrize("chart", sorted(CHARTS))
@pytest.mark.parametrize("projection", [OXY, OXZ], ids=["oxy", "oxz"])
@pytest.mark.parametrize("smoothing", sorted(SMOOTHINGS))
@settings(max_examples=8, deadline=None)
@given(st.lists(st.tuples(positive_rationals, rationals), min_size=8, max_size=8))
def test_moved_lines_give_the_oracle_outputs(chart, projection, smoothing, moves):
    with mock.patch.object(geometry, "base_points", CHARTS[chart]):
        lines = tuple(
            moved(line, scale, shift)
            for line, (scale, shift) in zip(build_configuration(), moves)
        )
        assert_matches_oracle(lines, projection, SMOOTHINGS[smoothing])


# Single lines whose tone changes sign at the edge of the box, inside it,
# outside it or nowhere, and lines parallel to a side of the box.
EDGE_LINES = {
    "cut-at-start": SpaceLine("m", Point3(7, 0, 0), Point3(-1, 1, 1)),
    "cut-at-end": SpaceLine("m", Point3(-7, 0, 0), Point3(1, -1, -1)),
    "cut-at-corner": SpaceLine("m", Point3(7, 7, 0), Point3(-1, -1, 1)),
    "cut-inside": SpaceLine("m", Point3(1, 2, -1), Point3(3, -2, 5)),
    "cut-outside": SpaceLine("m", Point3(1, 2, 30), Point3(3, -2, 5)),
    "flat": SpaceLine("m", Point3(-2, 3, 4), Point3(5, 0, 0)),
    "parallel-to-y": SpaceLine("m", Point3(-2, 3, 1), Point3(0, -3, 2)),
    "outside-the-box": SpaceLine("m", Point3(9, 0, 1), Point3(0, 1, 2)),
}


@pytest.mark.parametrize("name", sorted(EDGE_LINES))
@pytest.mark.parametrize("projection", [OXY, OXZ], ids=["oxy", "oxz"])
def test_edge_lines_give_the_oracle_svg(name, projection):
    line = EDGE_LINES[name]
    for lines in [(line,), (moved(line, Fraction(2, 3), Fraction(-1, 5)),)]:
        assert emit_projection_svg(lines, projection) == fraction_svg(lines, projection)
