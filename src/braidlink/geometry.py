"""Exact rational geometry of the bundled eight-line configuration.

The configuration lives in an affine chart (x, y, z) of projective 3-space:
the vertical axis line L is the z-axis, the line at infinity L' is the
common infinity line of the planes z = const, and the eight lines are two
quarter-turn orbits of the lines through p0 = (3,-1,-1), q0 = (3,1,1).
Everything is computed over the rationals; floating point never appears.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd

Rational = Fraction

INFINITY_LABEL = "L'"
DOUBLE_POINT_LABELS = ("p0", "p1", "p2", "p3", "q0", "q1", "q2", "q3")

Direction = tuple[int, int]


@dataclass(frozen=True)
class Point3:
    """A point, or a direction vector, of the affine chart."""

    x: Rational
    y: Rational
    z: Rational


@dataclass(frozen=True)
class SpaceLine:
    """Oriented affine line: base + t * direction, t in R."""

    label: str
    base: Point3
    direction: Point3


def rotate_quarter_turn(p: Point3) -> Point3:
    """Rotation by 90 degrees around the z-axis: (x, y, z) -> (-y, x, z)."""
    return Point3(-p.y, p.x, p.z)


def base_points() -> dict[str, Point3]:
    """The eight genuine double points p0..p3, q0..q3."""
    points = {"p0": Point3(Fraction(3), Fraction(-1), Fraction(-1)),
              "q0": Point3(Fraction(3), Fraction(1), Fraction(1))}
    for k in range(1, 4):
        points[f"p{k}"] = rotate_quarter_turn(points[f"p{k-1}"])
        points[f"q{k}"] = rotate_quarter_turn(points[f"q{k-1}"])
    return points


def _line_through(label: str, a: Point3, b: Point3) -> SpaceLine:
    d = Point3(b.x - a.x, b.y - a.y, b.z - a.z)
    if d.z < 0:
        d = Point3(-d.x, -d.y, -d.z)  # orient with dz > 0
    if d.z == 0:
        raise ValueError("configuration lines must not be horizontal")
    return SpaceLine(label, a, d)


def build_configuration() -> tuple[SpaceLine, ...]:
    """The eight lines: l_k through (p_k, q_k), l'_k through (p_k, q_(k+1)),
    all oriented with dz > 0."""
    pts = base_points()
    lines = []
    for k in range(4):
        lines.append(_line_through(f"l{k}", pts[f"p{k}"], pts[f"q{k}"]))
    for k in range(4):
        lines.append(_line_through(f"l'{k}", pts[f"p{k}"], pts[f"q{(k+1) % 4}"]))
    return tuple(lines)


# -- projections ------------------------------------------------------------

@dataclass(frozen=True)
class Projection:
    """A coordinate projection of the space onto a drawing plane.

    plane_axes name the two coordinates drawn; the remaining coordinate,
    depth_axis, times depth_sign is the depth, larger meaning closer to the
    viewer (the over strand).  infinity_is_strand is True when the line at
    infinity L' is a strand of the picture, so that projected-parallel
    pairs meet it in triple crossings.
    """

    name: str
    plane_axes: tuple[str, str]
    depth_axis: str
    depth_sign: int
    infinity_is_strand: bool

    def plane(self, p: Point3) -> tuple[Rational, Rational]:
        return (getattr(p, self.plane_axes[0]), getattr(p, self.plane_axes[1]))

    def depth(self, p: Point3) -> Rational:
        return self.depth_sign * getattr(p, self.depth_axis)


# Oxy is viewed from z = +infinity.  The Oxz picture arises from it by
# rotating space around the x-axis, which points the y-axis away from the
# viewer, so smaller y is closer.
OXY = Projection("oxy", ("x", "y"), "z", 1, infinity_is_strand=True)
OXZ = Projection("oxz", ("x", "z"), "y", -1, infinity_is_strand=False)


def projection_named(name: str) -> Projection:
    for projection in (OXY, OXZ):
        if projection.name == name:
            return projection
    raise ValueError(f"unknown projection {name!r}")


@dataclass(frozen=True)
class ProjectedLine:
    """Image of a space line base + t * direction in the drawing plane.

    The one parametrisation: at parameter t the image point is
    base + t * step and the space line lies at depth depth + t * depth_step
    over it (base, step and the depths are the projection's coordinates of
    the space line's base and direction).  The same points satisfy
    normal . X = offset, and direction is the primitive integer step.
    """

    label: str
    normal: tuple[int, int]
    offset: int
    direction: Direction
    base: tuple[Rational, Rational]
    step: tuple[Rational, Rational]
    depth: Rational
    depth_step: Rational

    def point_at(self, t: Rational) -> tuple[Rational, Rational]:
        return (self.base[0] + t * self.step[0], self.base[1] + t * self.step[1])

    def depth_at(self, point: tuple[Rational, Rational]) -> Rational:
        """Depth of the space line over a drawing-plane point on it."""
        axis = 0 if self.step[0] != 0 else 1
        t = Fraction(point[axis] - self.base[axis], self.step[axis])
        return self.depth + t * self.depth_step


def half_turn_direction(d: Direction, start: Direction) -> tuple[Direction, tuple]:
    """The representative r of +-d whose angle from start lies in [0, pi),
    and a key ordering such representatives by that angle: the start class
    first, then counterclockwise over the half turn.

    This is the one direction order of the arrangement: the crossing list
    is sorted by it from (1, 0) and the sweep scans by it from its start.
    """
    cross = start[0] * d[1] - start[1] * d[0]
    dot = start[0] * d[0] + start[1] * d[1]
    if cross < 0 or (cross == 0 and dot < 0):
        d, cross, dot = (-d[0], -d[1]), -cross, -dot
    # -cot of the angle from start increases over (0, pi)
    return d, ((0, 0) if cross == 0 else (1, Fraction(-dot, cross)))


def _primitive(a: Fraction | int, b: Fraction | int) -> tuple[int, int]:
    fa, fb = Fraction(a), Fraction(b)
    if fa == 0 and fb == 0:
        raise ValueError("zero direction")
    den = fa.denominator * fb.denominator // gcd(fa.denominator, fb.denominator)
    ia, ib = int(fa * den), int(fb * den)
    g = gcd(abs(ia), abs(ib))
    return (ia // g, ib // g)


def upper_half_primitive(a, b) -> Direction:
    """Primitive integer direction normalized modulo 180 degrees: second
    component positive, or zero with the first positive."""
    return half_turn_direction(_primitive(a, b), (1, 0))[0]


def project_line(line: SpaceLine, projection: Projection) -> ProjectedLine:
    b2 = projection.plane(line.base)
    d2 = projection.plane(line.direction)
    normal = _primitive(d2[1], -d2[0])
    offset_frac = Fraction(normal[0]) * b2[0] + Fraction(normal[1]) * b2[1]
    # scale normal so the offset is an integer (configuration data is integral)
    if offset_frac.denominator != 1:
        normal = (normal[0] * offset_frac.denominator, normal[1] * offset_frac.denominator)
        offset_frac = offset_frac * offset_frac.denominator
    return ProjectedLine(
        line.label, normal, int(offset_frac), _primitive(*d2), b2, d2,
        projection.depth(line.base), projection.depth(line.direction),
    )


# -- crossings ---------------------------------------------------------------

@dataclass(frozen=True)
class CrossingEvent:
    """One event of a planar projection.

    kind "finite": a transversal crossing (position set, two labels, over
    and sign set) or a flagged double point of the space curve (sign and
    over unset, double_point carrying its name).  kind "at_infinity": two
    lines parallel in the projection meeting at infinity, a triple with the
    infinity line where that line is a strand of the picture.
    """

    kind: str
    labels: tuple[str, ...]
    angle: Direction | None  # scan direction; None for a crossing at the origin
    position: tuple[Rational, Rational] | None = None
    over: str | None = None
    sign: int | None = None
    double_point: str | None = None
    positive_over: str | None = None  # which label is over if resolved positively


def _intersect(a: ProjectedLine, b: ProjectedLine) -> tuple[Rational, Rational] | None:
    det = a.normal[0] * b.normal[1] - a.normal[1] * b.normal[0]
    if det == 0:
        return None
    x = Fraction(a.offset * b.normal[1] - b.offset * a.normal[1], det)
    y = Fraction(a.normal[0] * b.offset - b.normal[0] * a.offset, det)
    return (x, y)


def project_crossings(
    lines: tuple[SpaceLine, ...], projection: Projection | str
) -> list[CrossingEvent]:
    """All pairwise crossing events of the projected arrangement.

    Pairs meeting in space are flagged double points awaiting a smoothing
    choice; the other finite crossings carry exact over/under and sign.
    Projected-parallel pairs give at-infinity events; in the Oxy picture the
    line at infinity is a strand and those events are triple crossings.
    """
    if isinstance(projection, str):
        projection = projection_named(projection)
    return crossings_of([project_line(line, projection) for line in lines], projection)


def crossings_of(
    projected: list[ProjectedLine], projection: Projection
) -> list[CrossingEvent]:
    """project_crossings of lines already projected by projection."""
    double_points = {projection.plane(p): name for name, p in base_points().items()}
    events: list[CrossingEvent] = []

    for i, a in enumerate(projected):
        for b in projected[i + 1:]:
            labels = (a.label, b.label)
            position = _intersect(a, b)
            if position is None:
                if projection.infinity_is_strand:
                    labels += (INFINITY_LABEL,)
                events.append(
                    CrossingEvent("at_infinity", labels, upper_half_primitive(*a.direction))
                )
                continue
            angle = None if position == (0, 0) else upper_half_primitive(*position)
            # a crossing is positive exactly when this line is the over one
            det = a.direction[0] * b.direction[1] - a.direction[1] * b.direction[0]
            positive_over = a.label if det > 0 else b.label
            depth_a, depth_b = a.depth_at(position), b.depth_at(position)
            if depth_a == depth_b:
                name = double_points.get(position)
                if name is None:
                    raise RuntimeError(
                        f"unexpected spatial intersection of {a.label} and {b.label}"
                    )
                event = CrossingEvent("finite", labels, angle, position,
                                      double_point=name, positive_over=positive_over)
            else:
                over = a.label if depth_a > depth_b else b.label
                event = CrossingEvent("finite", labels, angle, position,
                                      over=over, sign=1 if over == positive_over else -1)
            events.append(event)
    events.sort(key=_event_sort_key)
    return events


def _event_sort_key(event: CrossingEvent):
    # the origin crossing first, then by angle from (1, 0)
    slope = (-1,) if event.angle is None else half_turn_direction(event.angle, (1, 0))[1]
    pos = event.position if event.position is not None else (Fraction(0), Fraction(0))
    return (slope, 0 if event.kind == "finite" else 1, pos, event.labels)


# -- smoothing ----------------------------------------------------------------

CROSSING_NEGATIVE = -1
CROSSING_POSITIVE = 1
SMOOTHED = 0


@dataclass(frozen=True)
class SmoothingChoice:
    """Resolution of each spatial double point of the perturbed curve:
    +1 / -1 keep a projected crossing of that sign, 0 reconnects the
    branches coherently so no crossing remains."""

    resolution: dict[str, int]

    def __post_init__(self):
        if set(self.resolution) != set(DOUBLE_POINT_LABELS):
            missing = set(DOUBLE_POINT_LABELS) - set(self.resolution)
            raise ValueError(f"smoothing choice missing points: {sorted(missing)}")
        for name, value in self.resolution.items():
            if value not in (-1, 0, 1):
                raise ValueError(f"invalid resolution {value!r} at {name}")

    @staticmethod
    def paper() -> "SmoothingChoice":
        """The bundled configuration's choice: a negative crossing at q0,
        coherent smoothing everywhere else."""
        res = {name: SMOOTHED for name in DOUBLE_POINT_LABELS}
        res["q0"] = CROSSING_NEGATIVE
        return SmoothingChoice(res)

    @staticmethod
    def all_positive() -> "SmoothingChoice":
        """The variant: the q0 crossing made positive instead."""
        res = {name: SMOOTHED for name in DOUBLE_POINT_LABELS}
        res["q0"] = CROSSING_POSITIVE
        return SmoothingChoice(res)


def smoothing_named(name: str) -> SmoothingChoice:
    if name == "paper":
        return SmoothingChoice.paper()
    if name == "all-positive":
        return SmoothingChoice.all_positive()
    raise ValueError(f"unknown smoothing {name!r}")


def apply_smoothing(
    events: list[CrossingEvent], choice: SmoothingChoice
) -> list[CrossingEvent]:
    """Resolve the flagged double points: crossings keep their chosen sign,
    smoothed points disappear from the event list; other events unchanged."""
    out = []
    for event in events:
        if event.double_point is None:
            out.append(event)
            continue
        resolution = choice.resolution[event.double_point]
        if resolution == SMOOTHED:
            continue
        a_label, b_label = event.labels
        if resolution == CROSSING_POSITIVE:
            over = event.positive_over
        else:
            over = b_label if event.positive_over == a_label else a_label
        out.append(replace(event, over=over, sign=resolution))
    return out


# -- serialization -------------------------------------------------------------

def event_json_dict(event: CrossingEvent) -> dict:
    return {
        "kind": event.kind,
        "labels": list(event.labels),
        "angle": None if event.angle is None else [event.angle[0], event.angle[1]],
        "position": None
        if event.position is None
        else [str(event.position[0]), str(event.position[1])],
        "over": event.over,
        "sign": event.sign,
        "double_point": event.double_point,
    }


def crossings_json(events: list[CrossingEvent], projection: Projection | str) -> str:
    name = projection if isinstance(projection, str) else projection.name
    payload = {
        "schema": "braidlink/crossings/1",
        "projection": name,
        "events": [event_json_dict(e) for e in events],
    }
    return json.dumps(payload, indent=2)
