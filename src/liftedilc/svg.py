"""Small hand-rolled SVG line charts.

Plots here are a convenience for eyeballing results; the CSV files are the
canonical output. Writing the handful of SVG elements directly keeps the
package free of plotting dependencies and the output byte-deterministic.
"""

import math
from dataclasses import dataclass
from typing import List

import numpy as np

WIDTH = 760
HEIGHT = 520
MARGIN_LEFT = 72
MARGIN_RIGHT = 24
MARGIN_TOP = 48
MARGIN_BOTTOM = 56
X_LABEL = "iteration"
Y_LABEL = "RMS error (dB)"


@dataclass
class Series:
    name: str
    xs: List[float]
    ys: List[float]
    color: str


@dataclass
class Marker:
    label: str
    x: float
    y: float
    color: str = "#444444"


def _nice_ticks(lo, hi, target=6):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * magnitude
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 else t)
        t += step
    return ticks


def _fmt(value):
    return f"{value:.6g}"


class _SvgDoc:
    def __init__(self):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        ]

    def line(self, x1, y1, x2, y2, color="#888888", width=1.0):
        self.parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{color}" stroke-width="{width}"/>'
        )

    def polyline(self, xs, ys, color, width=1.6):
        # one template over the interleaved coordinates formats each value
        # as f"{value:.2f}" would
        coords = " ".join(["%.2f,%.2f"] * len(xs)) % tuple(
            np.column_stack([xs, ys]).ravel().tolist()
        )
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"/>'
        )

    def circle(self, x, y, r, color):
        self.parts.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r}" fill="{color}"/>'
        )

    def text(self, x, y, content, size=12, color="#222222", anchor="start",
             rotate=None):
        transform = f' transform="rotate(-90 {x:.2f} {y:.2f})"' if rotate else ""
        self.parts.append(
            f'<text x="{x:.2f}" y="{y:.2f}" font-family="sans-serif" '
            f'font-size="{size}" fill="{color}" text-anchor="{anchor}"'
            f"{transform}>{content}</text>"
        )

    def render(self):
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def render_line_chart(path, series, title, markers=None):
    """Write a line chart of the given series (and optional point markers)."""
    populated = [s for s in series if s.xs]
    xs_all = [x for s in populated for x in s.xs]
    ys_all = [y for s in populated for y in s.ys]
    if markers:
        xs_all += [m.x for m in markers]
        ys_all += [m.y for m in markers]
    if not xs_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    # px and py map a number or an array, with the same operations in the
    # same order either way
    def px(x):
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    doc = _SvgDoc()
    for t in _nice_ticks(x_lo, x_hi):
        doc.line(px(t), MARGIN_TOP, px(t), MARGIN_TOP + plot_h,
                 color="#dddddd")
        doc.text(px(t), MARGIN_TOP + plot_h + 18, _fmt(t), anchor="middle")
    for t in _nice_ticks(y_lo, y_hi):
        doc.line(MARGIN_LEFT, py(t), MARGIN_LEFT + plot_w, py(t),
                 color="#dddddd")
        doc.text(MARGIN_LEFT - 8, py(t) + 4, _fmt(t), anchor="end")
    doc.line(MARGIN_LEFT, MARGIN_TOP, MARGIN_LEFT, MARGIN_TOP + plot_h,
             color="#222222")
    doc.line(MARGIN_LEFT, MARGIN_TOP + plot_h, MARGIN_LEFT + plot_w,
             MARGIN_TOP + plot_h, color="#222222")

    for s in populated:
        doc.polyline(px(np.array(s.xs)), py(np.array(s.ys)), s.color)
    for m in markers or []:
        doc.circle(px(m.x), py(m.y), 4.0, m.color)
        doc.text(px(m.x) + 6, py(m.y) - 6, m.label, size=11, color=m.color)

    doc.text(MARGIN_LEFT, MARGIN_TOP - 16, title, size=15)
    doc.text(MARGIN_LEFT + plot_w / 2, HEIGHT - 14, X_LABEL, anchor="middle")
    doc.text(20, MARGIN_TOP + plot_h / 2, Y_LABEL, anchor="middle", rotate=True)
    legend_y = MARGIN_TOP + 14
    for s in populated:
        doc.line(MARGIN_LEFT + plot_w - 150, legend_y - 4,
                 MARGIN_LEFT + plot_w - 120, legend_y - 4, color=s.color,
                 width=2.2)
        doc.text(MARGIN_LEFT + plot_w - 112, legend_y, s.name, size=12)
        legend_y += 18

    with open(path, "w") as handle:
        handle.write(doc.render())
