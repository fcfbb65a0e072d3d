"""Exact geometry of the bundled eight-line configuration.

The configuration lives in an affine chart (x, y, z) of projective 3-space:
the vertical axis line L is the z-axis, the line at infinity L' is the
common infinity line of the planes z = const, and the eight lines are two
quarter-turn orbits of the lines through p0 = (3,-1,-1), q0 = (3,1,1).

The configuration data is integral: the points, the line directions and
their projections are ints, and so is every quotient the arrangement
takes, as a numerator over a positive denominator: a crossing's position
is the homogeneous (x, y, w) of `reduced`.  Only the output divides.
"""

from __future__ import annotations

from collections.abc import Iterable
from math import gcd, lcm

from . import Record

INFINITY_LABEL = "L'"
DOUBLE_POINT_LABELS = ("p0", "p1", "p2", "p3", "q0", "q1", "q2", "q3")

Direction = Vector2 = tuple[int, int]
Homogeneous = tuple[int, int, int]  # (x, y, w) for the point (x/w, y/w), w > 0


class Point3(Record):
    """A point, or a direction vector, of the affine chart."""

    __slots__ = ("x", "y", "z")


class SpaceLine(Record):
    """Oriented affine line: base + t * direction, t in R."""

    __slots__ = ("label", "base", "direction")


def rotate_quarter_turn(p: Point3) -> Point3:
    """Rotation by 90 degrees around the z-axis: (x, y, z) -> (-y, x, z)."""
    return Point3(-p.y, p.x, p.z)


def base_points() -> dict[str, Point3]:
    """The eight genuine double points p0..p3, q0..q3."""
    points = {"p0": Point3(3, -1, -1), "q0": Point3(3, 1, 1)}
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
    return tuple(
        [_line_through(f"l{k}", pts[f"p{k}"], pts[f"q{k}"]) for k in range(4)]
        + [_line_through(f"l'{k}", pts[f"p{k}"], pts[f"q{(k+1) % 4}"]) for k in range(4)]
    )


# -- projections ------------------------------------------------------------

class Projection(Record):
    """A coordinate projection of the space onto a drawing plane.

    plane_axes name the two coordinates drawn.  They and the direction
    towards the viewer, in that order, form a right-handed frame: the
    crossing signs rely on it.  tone_axis is the coordinate whose sign the
    SVG draws in two tones.  infinity_is_strand is True when the line at
    infinity L' is a strand of the picture, so that projected-parallel
    pairs meet it in triple crossings.
    """

    __slots__ = ("name", "plane_axes", "tone_axis", "infinity_is_strand")

    def plane(self, p: Point3) -> Vector2:
        return (getattr(p, self.plane_axes[0]), getattr(p, self.plane_axes[1]))


# Oxy is viewed from z = +infinity.  The Oxz picture arises from it by
# rotating space around the x-axis, so it is viewed from y = -infinity.
OXY = Projection("oxy", ("x", "y"), "z", infinity_is_strand=True)
OXZ = Projection("oxz", ("x", "z"), "y", infinity_is_strand=False)


def projection_named(projection: Projection | str) -> Projection:
    """The projection itself, or the bundled one of that name."""
    if isinstance(projection, Projection):
        return projection
    for candidate in (OXY, OXZ):
        if candidate.name == projection:
            return candidate
    raise ValueError(f"unknown projection {projection!r}")


def cross(u: Vector2, v: Vector2) -> int:
    """The plane cross product u x v: positive when v turns counterclockwise
    from u, zero when they are parallel."""
    return u[0] * v[1] - u[1] * v[0]


class ProjectedLine(Record):
    """Image of a space line base + t * direction in the drawing plane.

    At parameter t the image point is base + t * step: base and step are
    the plane coordinates of the space line's base and direction.
    Crossings, the sweep's strand order and the SVG segments all read this
    one parametrisation.
    """

    __slots__ = ("label", "base", "step")


def reduced(*values) -> tuple[int, ...]:
    """The integers proportional to values, with gcd 1 and the last one not
    negative: (x, y, w) for the point (x/w, y/w), (p, q) for p/q.  The values
    are ints or rationals with numerator and denominator, not all zero."""
    den = lcm(*[v.denominator for v in values])
    ints = [v.numerator * (den // v.denominator) for v in values]
    g = -gcd(*ints) if ints[-1] < 0 else gcd(*ints)
    return tuple([n // g for n in ints])


def half_turn_order(
    directions: Iterable[Direction], start: Direction
) -> dict[Direction, tuple[Direction, tuple[int, int]]]:
    """For each direction d, the representative r of +-d whose angle from
    start lies in [0, pi), and an integer key ordering the representatives
    by that angle: the start class first, then counterclockwise over the
    half turn.  A key is -cot of the angle times the lcm of the turns.

    This is the one direction order of the arrangement: the crossing list
    is sorted by it from (1, 0) and the sweep scans by it from its start.
    """
    frames = {}
    for d in directions:
        turn, dot = cross(start, d), start[0] * d[0] + start[1] * d[1]
        flip = turn < 0 or (turn == 0 and dot < 0)
        frames[d] = ((-d[0], -d[1]), -turn, -dot) if flip else (d, turn, dot)
    common = lcm(*[turn for _, turn, _ in frames.values() if turn])
    # -cot of the angle from start increases over (0, pi)
    return {
        d: (rep, (0, 0) if turn == 0 else (1, -dot * (common // turn)))
        for d, (rep, turn, dot) in frames.items()
    }


def upper_half_primitive(a, b) -> Direction:
    """Primitive integer direction of the rational (a, b) normalized modulo
    180 degrees: second component positive, or zero with the first positive."""
    if a == b == 0:
        raise ValueError("zero direction")
    x, y = reduced(a, b)
    return (x, y) if y else (1, 0)


def project_line(line: SpaceLine, projection: Projection) -> ProjectedLine:
    return ProjectedLine(
        line.label, projection.plane(line.base), projection.plane(line.direction)
    )


def _handedness(a: SpaceLine, b: SpaceLine) -> int:
    """det(d_a, d_b, b_b - b_a): zero exactly when the lines are coplanar,
    and otherwise of one sign in every view.  Where a crosses over b in a
    right-handed view the determinant has the opposite sign to the plane
    cross product of their images, so it is negative at a positive
    crossing."""
    d, e, p, q = a.direction, b.direction, a.base, b.base
    return (
        (d.y * e.z - d.z * e.y) * (q.x - p.x)
        + (d.z * e.x - d.x * e.z) * (q.y - p.y)
        + (d.x * e.y - d.y * e.x) * (q.z - p.z)
    )


# -- crossings ---------------------------------------------------------------

class CrossingEvent(Record):
    """One event of a planar projection.

    kind "finite": a transversal crossing (position, two labels, sign and
    positive_over set) or a flagged double point of the space curve (sign
    unset, double_point carrying its name).  kind "at_infinity": two lines
    parallel in the projection meeting at infinity, a triple with the
    infinity line where that line is a strand of the picture.  angle is the
    scan direction, None for a crossing at the origin; positive_over is the
    label that is over if the crossing is resolved positively.
    """

    __slots__ = ("kind", "labels", "angle", "position", "sign", "double_point", "positive_over")

    @property
    def over(self) -> str | None:
        """The over strand's label: positive_over at a positive crossing,
        the other label at a negative one, None while the sign is unset."""
        if self.sign is None:
            return None
        if self.sign > 0:
            return self.positive_over
        a, b = self.labels
        return b if self.positive_over == a else a


def project_crossings(
    lines: tuple[SpaceLine, ...], projection: Projection | str
) -> list[CrossingEvent]:
    """All pairwise crossing events of the projected arrangement.

    Pairs meeting in space are flagged double points awaiting a smoothing
    choice; the other finite crossings carry the sign of the two lines'
    handedness, which is the same in every view.  Projected-parallel pairs
    give at-infinity events; in the Oxy picture the line at infinity is a
    strand and those events are triple crossings.
    """
    projection = projection_named(projection)
    double_points = {(*projection.plane(p), 1): name for name, p in base_points().items()}
    projected = [(line, project_line(line, projection)) for line in lines]
    events: list[CrossingEvent] = []

    for i, (a, pa) in enumerate(projected):
        for b, pb in projected[i + 1:]:
            labels = (a.label, b.label)
            det = cross(pa.step, pb.step)
            if det == 0:
                if projection.infinity_is_strand:
                    labels += (INFINITY_LABEL,)
                angle = upper_half_primitive(*pa.step)
                events.append(CrossingEvent("at_infinity", labels, angle, None, None, None, None))
                continue
            # the crossing is pa's point at parameter n / det
            gap = (pb.base[0] - pa.base[0], pb.base[1] - pa.base[1])
            n = cross(gap, pb.step)
            x, y = pa.base[0] * det + n * pa.step[0], pa.base[1] * det + n * pa.step[1]
            position = reduced(x, y, det)
            angle = None if x == y == 0 else upper_half_primitive(x, y)
            # a crossing is positive exactly when this line is the over one
            positive_over = a.label if det > 0 else b.label
            handedness = _handedness(a, b)
            sign = name = None
            if handedness == 0:
                name = double_points.get(position)
                if name is None:
                    raise RuntimeError(
                        f"unexpected spatial intersection of {a.label} and {b.label}"
                    )
            else:
                sign = 1 if handedness < 0 else -1
            events.append(
                CrossingEvent("finite", labels, angle, position, sign, name, positive_over)
            )
    # the origin first, then by angle from (1, 0), kind, position and labels
    slopes = half_turn_order({e.angle for e in events if e.angle}, (1, 0))
    common = lcm(*[e.position[2] for e in events if e.position])
    events.sort(key=lambda e: (
        slopes[e.angle][1] if e.angle else (-1,),
        e.kind != "finite",
        [c * common // e.position[2] for c in e.position[:2]] if e.position else [],
        e.labels,
    ))
    return events


# -- smoothing ----------------------------------------------------------------

CROSSING_NEGATIVE = -1
CROSSING_POSITIVE = 1
SMOOTHED = 0


class SmoothingChoice(Record):
    """Resolution of each spatial double point of the perturbed curve:
    +1 / -1 keep a projected crossing of that sign, 0 reconnects the
    branches coherently so no crossing remains."""

    __slots__ = ("resolution",)

    def __init__(self, resolution: dict[str, int]):
        if set(resolution) != set(DOUBLE_POINT_LABELS):
            missing = set(DOUBLE_POINT_LABELS) - set(resolution)
            raise ValueError(f"smoothing choice missing points: {sorted(missing)}")
        for name, value in resolution.items():
            if value not in (-1, 0, 1):
                raise ValueError(f"invalid resolution {value!r} at {name}")
        object.__setattr__(self, "resolution", resolution)

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
        if resolution != SMOOTHED:
            out.append(event.replace(sign=resolution))
    return out


# -- serialization -------------------------------------------------------------

def _quotient_text(n: int, d: int) -> str:
    """n/d, d > 0, in lowest terms: `a` or `a/b`."""
    return f"{n // gcd(n, d)}/{d // gcd(n, d)}".removesuffix("/1")


def crossings_json(events: list[CrossingEvent], projection: Projection | str) -> str:
    """The events as JSON, laid out as json.dumps(..., indent=2) lays it out;
    its strings are names and quotients, with nothing to escape."""
    names, blocks = ("kind", "labels", "angle", "position", "over", "sign", "double_point"), []
    for e in events:
        position = e.position and [_quotient_text(c, e.position[2]) for c in e.position[:2]]
        values = (e.kind, e.labels, e.angle, position, e.over, e.sign, e.double_point)
        fields = ",\n".join(f'      "{k}": {_json_field(v)}' for k, v in zip(names, values))
        blocks.append(f"    {{\n{fields}\n    }}")
    listed = "[\n" + ",\n".join(blocks) + "\n  ]" if blocks else "[]"
    name = projection_named(projection).name
    head = f'{{\n  "schema": "braidlink/crossings/1",\n  "projection": "{name}",\n'
    return f'{head}  "events": {listed}\n}}'


def _json_field(value: str | int | Iterable | None) -> str:
    """An event field (None, str, int or a flat sequence) as json.dumps(..., indent=2) has it."""
    if value is None:
        return "null"
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, int):
        return str(value)
    items = ",\n        ".join(map(_json_field, value))
    return f"[\n        {items}\n      ]" if items else "[]"
