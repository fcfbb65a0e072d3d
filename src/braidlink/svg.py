"""Schematic SVG of a projected line arrangement.

Each line is drawn in two tones split where the projection's depth-axis
coordinate changes sign (black positive, grey negative: z for the Oxy
picture, y for Oxz).  Crossings show the under strand interrupted by a white casing under
the over strand; unresolved or smoothed double points are marked with a
small circle.  The viewport is fixed to [-7, 7]^2, so output bytes are a
deterministic function of the input.
"""

from __future__ import annotations

from fractions import Fraction

from .geometry import (
    Projection,
    ProjectedLine,
    SmoothingChoice,
    SpaceLine,
    apply_smoothing,
    crossings_of,
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


def _tone(depth_axis_coordinate: Fraction) -> str:
    return TONE_POSITIVE if depth_axis_coordinate > 0 else TONE_NEGATIVE


def _clip_parameter_range(line: ProjectedLine) -> tuple[Fraction, Fraction]:
    """Parameter range of the line's points that lie in the box."""
    bounds: list[tuple[Fraction, Fraction]] = []
    for axis in (0, 1):
        if line.step[axis] == 0:
            continue
        t1 = Fraction(-VIEW - line.base[axis], line.step[axis])
        t2 = Fraction(VIEW - line.base[axis], line.step[axis])
        bounds.append((min(t1, t2), max(t1, t2)))
    lo = max(t[0] for t in bounds)
    hi = min(t[1] for t in bounds)
    return lo, hi


def _line_segments(line: ProjectedLine, depth_sign: int) -> list[tuple[str, tuple, tuple]]:
    """(tone, start, end) pieces of the clipped line, split where the
    depth-axis coordinate, depth_sign times the depth, changes sign."""
    lo, hi = _clip_parameter_range(line)
    if lo >= hi:
        return []
    cuts = [lo, hi]
    if line.depth_step != 0:
        t_zero = -line.depth / line.depth_step
        if lo < t_zero < hi:
            cuts.insert(1, t_zero)
    # the depth is linear in t, so a piece has the sign of its midpoint
    return [
        (_tone(depth_sign * (line.depth + (a + b) / 2 * line.depth_step)),
         line.point_at(a), line.point_at(b))
        for a, b in zip(cuts, cuts[1:])
    ]


def emit_projection_svg(
    lines: tuple[SpaceLine, ...],
    projection: Projection | str,
    smoothing: SmoothingChoice | None = None,
) -> str:
    if isinstance(projection, str):
        projection = projection_named(projection)
    projected = {line.label: project_line(line, projection) for line in lines}
    events = crossings_of(list(projected.values()), projection)
    if smoothing is not None:
        events = apply_smoothing(events, smoothing)

    size = float(2 * VIEW * SCALE)
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:.0f}" '
        f'height="{size:.0f}" viewBox="0 0 {size:.0f} {size:.0f}">',
        f'<rect width="{size:.0f}" height="{size:.0f}" fill="#ffffff"/>',
    ]
    for line in lines:
        out.append(f'<g class="line" id="line-{line.label}">')
        segments = _line_segments(projected[line.label], projection.depth_sign)
        for tone, start, end in segments:
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
        over_label = event.over
        if over_label is None:
            continue
        over = projected[over_label]
        d = over.direction
        norm = max(abs(d[0]), abs(d[1]))
        ux, uy = Fraction(d[0], norm), Fraction(d[1], norm)
        a = (event.position[0] - ux * gap, event.position[1] - uy * gap)
        b = (event.position[0] + ux * gap, event.position[1] + uy * gap)
        # the tone follows the depth axis coordinate itself, not the depth
        tone = _tone(projection.depth_sign * over.depth_at(event.position))
        out.append(
            f'<g class="crossing"><polyline points="{_fmt(a)} {_fmt(b)}" '
            f'fill="none" stroke="#ffffff" stroke-width="8"/>'
            f'<polyline points="{_fmt(a)} {_fmt(b)}" fill="none" '
            f'stroke="{tone}" stroke-width="2"/></g>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
