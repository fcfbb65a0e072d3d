"""Schematic SVG of a projected line arrangement.

Each line is drawn in two tones split where the projection's tone-axis
coordinate changes sign (black positive, grey negative: z for the Oxy
picture, y for Oxz).  Crossings show the under strand interrupted by a
white casing under the over strand; unresolved or smoothed double points
are marked with a small circle.  The viewport is fixed to [-7, 7]^2, so
output bytes are a deterministic function of the input.

The drawing is computed in integers: a line's clip parameters and the cut
where its tone changes are integers over one denominator per line, and
every point, casing ends included, is a homogeneous (x, y, w).  Only
_svg_coords divides, to format the output.
"""

from __future__ import annotations

from math import lcm

from .geometry import (
    Homogeneous,
    Projection,
    ProjectedLine,
    SmoothingChoice,
    SpaceLine,
    apply_smoothing,
    project_crossings,
    project_line,
    projection_named,
    reduced,
)

VIEW = 7
SCALE = 40
TONE_POSITIVE = "#000000"
TONE_NEGATIVE = "#999999"


def _svg_coords(p: Homogeneous) -> tuple[float, float]:
    x, y, w = p
    return (float((x + VIEW * w) * SCALE / w), float((VIEW * w - y) * SCALE / w))


def _fmt(p: Homogeneous) -> str:
    x, y = _svg_coords(p)
    return f"{x:.2f},{y:.2f}"


def _tone(c: int, dc: int, n: int, d: int) -> str:
    """The tone where the axis coordinate c + t * dc has t = n / d, d != 0."""
    return TONE_POSITIVE if (c * d + n * dc) * d > 0 else TONE_NEGATIVE


def _line_segments(
    line: SpaceLine, image: ProjectedLine, axis: str
) -> list[tuple[str, Homogeneous, Homogeneous]]:
    """(tone, start, end) pieces of the clipped image of the line, split
    where its axis coordinate changes sign."""
    # the image's base and step and the axis coordinate's, times q > 0
    c, dc = getattr(line.base, axis), getattr(line.direction, axis)
    bx, by, ux, uy, c, dc, q = reduced(*image.base, *image.step, c, dc, 1)
    # a parameter T stands for t = T / den, so the bounds and the cut are integers
    den = lcm(ux or 1, uy or 1, dc or 1)
    bounds = [
        sorted([(-VIEW * q - b) * den // u, (VIEW * q - b) * den // u])
        for b, u in ((bx, ux), (by, uy)) if u
    ]
    lo, hi = max(lower for lower, _ in bounds), min(upper for _, upper in bounds)
    if lo >= hi:
        return []
    cuts = [lo, hi]
    if dc and lo < -c * den // dc < hi:
        cuts.insert(1, -c * den // dc)
    points = [(bx * den + t * ux, by * den + t * uy, q * den) for t in cuts]
    # the coordinate is linear in t, so a piece has the sign of its midpoint
    return [
        (_tone(c, dc, s + t, 2 * den), points[i], points[i + 1])
        for i, (s, t) in enumerate(zip(cuts, cuts[1:]))
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

    size = 2 * VIEW * SCALE
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="#ffffff"/>',
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
        # a quarter unit of the larger step coordinate either way of (x/w, y/w)
        x, y, w = event.position
        ux, uy = over.step
        m = 4 * max(abs(ux), abs(uy))
        a = (m * x - w * ux, m * y - w * uy, m * w)
        b = (m * x + w * ux, m * y + w * uy, m * w)
        # the over line's tone at the crossing's own parameter
        i = 0 if ux != 0 else 1
        c, dc = getattr(line.base, axis), getattr(line.direction, axis)
        tone = _tone(c, dc, event.position[i] - over.base[i] * w, w * over.step[i])
        out.append(
            f'<g class="crossing"><polyline points="{_fmt(a)} {_fmt(b)}" '
            f'fill="none" stroke="#ffffff" stroke-width="8"/>'
            f'<polyline points="{_fmt(a)} {_fmt(b)}" fill="none" '
            f'stroke="{tone}" stroke-width="2"/></g>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
