"""SVG rendering of ruler constructions in the rational plane.

Exact rational coordinates are converted to floats rounded to 6 decimals
for drawing only; nothing here feeds back into computation.  The viewBox
is auto-fitted to the labeled points with a margin, lines are drawn as
full-width chords of the view, and points become labeled circles.  A number
that does not fit in a float raises DegenerateConfigurationError.
"""

from __future__ import annotations

import math


def _f(value) -> float:
    # A rational payload is (n, d); int true division rounds n / d correctly,
    # the same float that float(Fraction(n, d)) gives.
    n, d = value.value
    try:
        return round(n / d, 6)
    except OverflowError:
        from .plane import DegenerateConfigurationError

        raise DegenerateConfigurationError("an SVG coordinate is out of float range") from None


def _fmt(x: float) -> str:
    if not math.isfinite(x):
        from .plane import DegenerateConfigurationError

        raise DegenerateConfigurationError("SVG figure is too large to draw in floats")
    return f"{x:.6g}"


class _Canvas:
    def __init__(self, vx, vy, vw, vh):
        self.parts = [
            '<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="{_fmt(vx)} {_fmt(vy)} {_fmt(vw)} {_fmt(vh)}" '
            'width="640" height="480">',
            f'<rect x="{_fmt(vx)}" y="{_fmt(vy)}" width="{_fmt(vw)}" '
            f'height="{_fmt(vh)}" fill="white"/>',
        ]
        self.stroke = max(vw, vh) / 320
        self.font = max(vw, vh) / 28

    def line(self, x1, y1, x2, y2, color="#777", width=1.0, dashed=False):
        dash = f' stroke-dasharray="{_fmt(4 * self.stroke)}"' if dashed else ""
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{color}" stroke-width="{_fmt(width * self.stroke)}"{dash}/>'
        )

    def point(self, x, y, label):
        r = 1.6 * self.stroke
        self.parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" fill="#c0392b"/>'
        )
        self.parts.append(
            f'<text x="{_fmt(x + 2 * r)}" y="{_fmt(y - 2 * r)}" '
            f'font-size="{_fmt(self.font)}" font-family="sans-serif">{label}</text>'
        )

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _chord(line: PlaneLine, vx, vy, vw, vh):
    """Endpoints of the segment of a line crossing the view rectangle."""
    if line.is_vertical:
        x = _f(line.intercept)
        return (x, vy, x, vy + vh)
    m, b = _f(line.slope), _f(line.intercept)
    x1, x2 = vx, vx + vw
    # plane y points up, svg y points down
    return (x1, -(x1 * m + b), x2, -(x2 * m + b))


def render_construction(construction: Construction) -> str:
    """Draw a construction trace: all its lines plus labeled points."""
    xs = [_f(p.x) for p in construction.points.values()]
    ys = [-_f(p.y) for p in construction.points.values()]
    spread = max(max(xs) - min(xs), max(ys) - min(ys), 1.0)
    pad = 0.3 * spread
    vx, vy = min(xs) - pad, min(ys) - pad
    vw = (max(xs) - min(xs)) + 2 * pad
    vh = (max(ys) - min(ys)) + 2 * pad
    canvas = _Canvas(vx, vy, vw, vh)
    for label, line in construction.lines:
        axis = label == "axis"
        helper = "parallel" not in label and not axis
        canvas.line(
            *_chord(line, vx, vy, vw, vh),
            color="#222" if axis else "#777",
            width=1.8 if axis else 1.0,
            dashed=helper,
        )
    for label, p in construction.points.items():
        canvas.point(_f(p.x), -_f(p.y), label)
    return canvas.render()
