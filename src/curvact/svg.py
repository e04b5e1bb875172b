"""Tiny deterministic SVG line-chart writer.

Charts are assembled as plain strings with fixed-precision coordinates so
the same inputs always produce byte-identical files, which keeps rendered
artifacts diffable and testable without an image library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

WIDTH = 640
HEIGHT = 440
MARGIN_LEFT = 70
MARGIN_RIGHT = 150
MARGIN_TOP = 40
MARGIN_BOTTOM = 55

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


@dataclass
class Series:
    """One polyline: a label plus x/y value lists of equal length."""

    label: str
    x: list[float]
    y: list[float]

    def __post_init__(self):
        self.x = [float(v) for v in self.x]
        self.y = [float(v) for v in self.y]
        if len(self.x) != len(self.y):
            raise ValueError("series x and y must have the same length")
        if not self.x:
            raise ValueError("series must contain at least one point")
        if any(not math.isfinite(v) for v in self.x + self.y):
            raise ValueError("series values must be finite")
        if list(self.x) != sorted(self.x):
            raise ValueError("series x values must be sorted ascending")


@dataclass
class ChartSpec:
    """Everything render_chart needs: series, titles and axis mode."""

    title: str
    x_label: str
    y_label: str
    series: list[Series]
    log_x: bool = False

    def __post_init__(self):
        if not self.series:
            raise ValueError("chart needs at least one series")
        if self.log_x and any(v <= 0 for s in self.series for v in s.x):
            raise ValueError("log_x requires strictly positive x values")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    if v == int(v) and abs(v) < 1e6:
        return str(int(v))
    return f"{v:.4g}"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _nice_y_ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def _line(x1, y1, x2, y2, stroke: str, width: int) -> str:
    return (f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="{stroke}" stroke-width="{width}"/>')


def _circle(cx, cy, fill: str) -> str:
    return f'<circle cx="{cx}" cy="{cy}" r="3" fill="{fill}"/>'


def _text(x, y, anchor: str, size: int, text: str, transform: str = "") -> str:
    """A sans-serif text element; anchor and transform are left out when
    empty, and text is escaped."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    transform = f' transform="{transform}"' if transform else ""
    return (f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" '
            f'font-size="{size}"{transform}>{_escape(text)}</text>')


def render_chart(spec: ChartSpec) -> str:
    """Return the chart as a complete SVG document; all text is escaped."""
    xs = [v for s in spec.series for v in s.x]
    ys = [v for s in spec.series for v in s.y]
    tx = (lambda v: math.log10(v)) if spec.log_x else (lambda v: v)
    x_lo, x_hi = min(tx(v) for v in xs), max(tx(v) for v in xs)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    y_lo, y_hi = min(ys), max(ys)
    pad = 0.05 * (y_hi - y_lo) if y_hi > y_lo else max(0.5, abs(y_lo) * 0.1)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(v: float) -> float:
        return MARGIN_LEFT + (tx(v) - x_lo) / (x_hi - x_lo) * plot_w

    def py(v: float) -> float:
        return MARGIN_TOP + (y_hi - v) / (y_hi - y_lo) * plot_h

    ax_bottom = MARGIN_TOP + plot_h
    ax_right = MARGIN_LEFT + plot_w
    mid_y = MARGIN_TOP + plot_h // 2
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        _text(WIDTH // 2, 24, "middle", 16, spec.title),
        # Axes.
        _line(MARGIN_LEFT, MARGIN_TOP, MARGIN_LEFT, ax_bottom, "black", 1),
        _line(MARGIN_LEFT, ax_bottom, ax_right, ax_bottom, "black", 1),
    ]

    # X ticks at the distinct data positions.
    for v in sorted(set(xs)):
        x = _fmt(px(v))
        parts.append(_line(x, ax_bottom, x, ax_bottom + 5, "black", 1))
        parts.append(_text(x, ax_bottom + 20, "middle", 11, _tick_label(v)))

    # Y ticks: five evenly spaced levels with light gridlines.
    for v in _nice_y_ticks(y_lo, y_hi):
        y = py(v)
        parts.append(_line(MARGIN_LEFT, _fmt(y), ax_right, _fmt(y), "#dddddd", 1))
        parts.append(_text(MARGIN_LEFT - 8, _fmt(y + 4), "end", 11,
                           _tick_label(round(v, 6))))

    # Axis labels.
    parts.append(_text(MARGIN_LEFT + plot_w // 2, HEIGHT - 12, "middle", 13, spec.x_label))
    parts.append(_text(18, mid_y, "middle", 13, spec.y_label, f"rotate(-90 18 {mid_y})"))

    # Series polylines with circle markers, then the legend beside the plot.
    for i, s in enumerate(spec.series):
        color = PALETTE[i % len(PALETTE)]
        pts = [(_fmt(px(a)), _fmt(py(b))) for a, b in zip(s.x, s.y)]
        points = " ".join(f"{a},{b}" for a, b in pts)
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                     f'stroke-width="2"/>')
        parts.extend(_circle(a, b, color) for a, b in pts)
        ly = MARGIN_TOP + 10 + 22 * i
        lx = ax_right + 12
        parts.append(_line(lx, ly, lx + 24, ly, color, 2))
        parts.append(_circle(lx + 12, ly, color))
        parts.append(_text(lx + 30, ly + 4, "", 12, s.label))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_chart(spec: ChartSpec, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_chart(spec))
