"""Rotational sweep of the Oxy projection into a braid word.

A line through the origin is rotated by half a turn from a start
direction, the horizontal (1, 0) by default.  At any instant it meets the
eight projected lines in eight points; together with the point of the
infinity line it carries nine strand points.  Cutting the scanning line at
the origin (where the vertical axis line pierces the picture) orders them:
positive ray outward, then the infinity point, then the negative ray
inward.  Every crossing of the smoothed picture is scanned exactly once per
half-turn and contributes one letter at the position of the swapping pair;
a pair of projected-parallel lines together with the infinity strand swap
simultaneously at their common direction and contribute the three letters
i, i+1, i of a triple crossing.

The full-turn braid is the half-turn word followed by its image under
sigma_i -> sigma_(9-i): the scanning line returns to itself with reversed
orientation after half a turn.

The scan order is geometry.half_turn_order, the same direction order
that sorts the crossing list: each event direction stands for its
representative at an angle in [0, pi) from the start direction, and the
events are met in increasing angle of that representative.
"""

from __future__ import annotations

from math import lcm

from .braids import BraidWord, concat, tau
from .geometry import (
    INFINITY_LABEL,
    OXY,
    CrossingEvent,
    Direction,
    ProjectedLine,
    SpaceLine,
    cross,
    half_turn_order,
    project_line,
    reduced,
)


class SweepError(RuntimeError):
    """A genericity assumption of the sweep failed."""


def strand_orders(
    projected: list[ProjectedLine], directions: list[Direction]
) -> list[list[str]]:
    """For each direction, the labels of the nine strand points just before
    the scanning line reaches it, ordered from the origin cut: positive ray
    outward, infinity, negative ray inward.

    A line base + t * step meets the ray s * direction at
    s = cross(base, step) / cross(direction, step).  The sorting key is
    w = -1/s per line (w = 0 for the infinity strand), perturbed clockwise
    for the tie-break at event directions.  w = -direction . u for the
    line's polar u, taken once and scaled to integers over one denominator.
    """
    polars = [(INFINITY_LABEL, (0, 0, 1))]  # the infinity strand's polar is 0
    for line in projected:
        moment = cross(line.base, line.step)
        if not moment:  # the Oxy image passes through the origin
            raise SweepError(f"line {line.label} meets the axis L")
        polars.append((line.label, reduced(line.step[1], -line.step[0], moment)))
    common = lcm(*[w for _, (_, _, w) in polars])
    polars = [(label, x * common // w, y * common // w) for label, (x, y, w) in polars]
    orders = []
    for dx, dy in directions:
        # w and w_tie times common: (dy, -dx) is the clockwise perturbation
        keyed = sorted(((-dx * x - dy * y, dx * y - dy * x), label) for label, x, y in polars)
        orders.append([label for _, label in keyed])
    return orders


def sweep_half_turn(
    lines: tuple[SpaceLine, ...],
    events: list[CrossingEvent],
    start: Direction = (1, 0),
) -> BraidWord:
    """Braid word of one half-turn of the scanning line over the smoothed
    event list (events from apply_smoothing; flagged double points are not
    accepted)."""
    projected = [project_line(line, OXY) for line in lines]

    # keyed by (angle key, representative): the key orders the groups, and
    # the representative, not event.angle, fixes the orientation of the
    # scanning line (the strand order at -d is the reverse of that at d)
    angles = half_turn_order({e.angle for e in events if e.angle is not None}, start)
    groups: dict[tuple[tuple, Direction], list[CrossingEvent]] = {}
    for event in events:
        if event.kind == "finite" and event.sign is None:
            raise SweepError("unsigned crossing or double point; apply a smoothing first")
        if event.angle is None:
            raise SweepError("event at the scan origin cannot be swept")
        rep, key = angles[event.angle]
        groups.setdefault((key, rep), []).append(event)
    scans = sorted(groups.items())
    orders = strand_orders(projected, [direction for (_, direction), _ in scans])

    letters: list[int] = []
    for ((_, direction), group), order in zip(scans, orders):
        position = {label: i + 1 for i, label in enumerate(order)}
        staged: list[tuple[int, list[int]]] = []
        occupied: set[int] = set()
        for event in group:
            places = sorted(position[label] for label in event.labels)
            if places != list(range(places[0], places[0] + len(places))):
                raise SweepError(
                    f"event strands not adjacent at direction {direction}: "
                    f"{event.labels} at {places}"
                )
            if occupied & set(places):
                raise SweepError(
                    f"overlapping simultaneous events at direction {direction}"
                )
            occupied.update(places)
            low = places[0]
            if event.kind == "at_infinity":
                if order[places[1] - 1] != INFINITY_LABEL:
                    raise SweepError(
                        "triple crossing without the infinity strand in the middle"
                    )
                staged.append((low, [low, low + 1, low]))
            else:
                staged.append((low, [event.sign * low]))
        for _, contribution in sorted(staged):
            letters.extend(contribution)
    return BraidWord(len(projected) + 1, tuple(letters))


def sweep_full_turn(
    lines: tuple[SpaceLine, ...],
    events: list[CrossingEvent],
    start: Direction = (1, 0),
) -> BraidWord:
    """Whole-turn braid: half turn followed by its flipped image."""
    half = sweep_half_turn(lines, events, start)
    return concat(half, tau(half))
