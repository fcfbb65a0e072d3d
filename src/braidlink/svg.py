"""Schematic SVG of a projected line arrangement.

Each line is drawn in two tones split where the projection's tone-axis
coordinate changes sign (black positive, grey negative: z for the Oxy
picture, y for Oxz).  Crossings show the under strand interrupted by a
white casing under the over strand; unresolved or smoothed double points
are marked with a small circle.  The viewport is fixed to [-7, 7]^2, so
output bytes are a deterministic function of the input.

The drawing is computed exactly: the clip parameters, the cut where the
tone changes and the casing ends are Fractions of the lines' integral
data, and only the output formatting (_svg_coords and the canvas size)
converts to float.
"""

from __future__ import annotations

from fractions import Fraction

from .geometry import (
    Projection,
    ProjectedLine,
    Rational,
    SmoothingChoice,
    SpaceLine,
    apply_smoothing,
    project_crossings,
    project_line,
    projection_named,
)

VIEW = Fraction(7)
SCALE = 40
TONE_POSITIVE = "#000000"
TONE_NEGATIVE = "#999999"


def _svg_coords(p: tuple[Fraction, Fraction]) -> tuple[float, float]:
    return (float((p[0] + VIEW) * SCALE), float((VIEW - p[1]) * SCALE))


def _fmt(p: tuple[Fraction, Fraction]) -> str:
    x, y = _svg_coords(p)
    return f"{x:.2f},{y:.2f}"


def _tone(line: SpaceLine, axis: str, t: Rational) -> str:
    """The tone of the line's point at parameter t."""
    coordinate = getattr(line.base, axis) + t * getattr(line.direction, axis)
    return TONE_POSITIVE if coordinate > 0 else TONE_NEGATIVE


def _clip_parameter_range(line: ProjectedLine) -> tuple[Fraction, Fraction]:
    """Parameter range of the line's points that lie in the box."""
    bounds: list[tuple[Fraction, Fraction]] = []
    for axis in (0, 1):
        if line.step[axis] == 0:
            continue
        t1 = Fraction(-VIEW - line.base[axis], line.step[axis])
        t2 = Fraction(VIEW - line.base[axis], line.step[axis])
        bounds.append((min(t1, t2), max(t1, t2)))
    return max(t[0] for t in bounds), min(t[1] for t in bounds)


def _line_segments(
    line: SpaceLine, image: ProjectedLine, axis: str
) -> list[tuple[str, tuple, tuple]]:
    """(tone, start, end) pieces of the clipped image of the line, split
    where its axis coordinate changes sign."""
    lo, hi = _clip_parameter_range(image)
    if lo >= hi:
        return []
    cuts = [lo, hi]
    if getattr(line.direction, axis) != 0:
        t_zero = Fraction(-getattr(line.base, axis), getattr(line.direction, axis))
        if lo < t_zero < hi:
            cuts.insert(1, t_zero)
    # the coordinate is linear in t, so a piece has the sign of its midpoint
    return [
        (_tone(line, axis, (a + b) / 2), image.point_at(a), image.point_at(b))
        for a, b in zip(cuts, cuts[1:])
    ]


def emit_projection_svg(
    lines: tuple[SpaceLine, ...],
    projection: Projection | str,
    smoothing: SmoothingChoice | None = None,
) -> str:
    projection = projection_named(projection)
    axis = projection.tone_axis
    events = project_crossings(lines, projection)
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
        for tone, start, end in _line_segments(line, image, axis):
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
            # unresolved or smoothed double point
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
        # the over line's tone at the crossing's own parameter
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
