"""Tiny deterministic SVG line-chart writer.

Charts are assembled as plain strings with fixed-precision coordinates so
the same inputs always produce byte-identical files, which keeps rendered
artifacts diffable and testable without an image library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def render_chart(spec: ChartSpec) -> str:
    """Return the chart as a complete SVG document; all text is escaped."""
    xs = [v for s in spec.series for v in s.x]
    ys = [v for s in spec.series for v in s.y]
    tx = (lambda v: math.log10(v)) if spec.log_x else (lambda v: v)
    x_lo, x_hi = min(tx(v) for v in xs), max(tx(v) for v in xs)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    y_lo, y_hi = min(ys), max(ys)
    pad = 0.05 * (y_hi - y_lo) if y_hi > y_lo else max(0.5, abs(y_lo) * 0.1, 0.5)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(v: float) -> float:
        return MARGIN_LEFT + (tx(v) - x_lo) / (x_hi - x_lo) * plot_w

    def py(v: float) -> float:
        return MARGIN_TOP + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{_escape(spec.title)}</text>',
    ]

    # Axes.
    ax_bottom = MARGIN_TOP + plot_h
    ax_right = MARGIN_LEFT + plot_w
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" '
        f'y2="{ax_bottom}" stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{MARGIN_LEFT}" y1="{ax_bottom}" x2="{ax_right}" '
        f'y2="{ax_bottom}" stroke="black" stroke-width="1"/>'
    )

    # X ticks at the distinct data positions.
    for v in sorted(set(xs)):
        x = px(v)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{ax_bottom}" x2="{_fmt(x)}" '
            f'y2="{ax_bottom + 5}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{ax_bottom + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_tick_label(v)}</text>'
        )

    # Y ticks: five evenly spaced levels with light gridlines.
    for v in _nice_y_ticks(y_lo, y_hi):
        y = py(v)
        parts.append(
            f'<line x1="{MARGIN_LEFT}" y1="{_fmt(y)}" x2="{ax_right}" '
            f'y2="{_fmt(y)}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_tick_label(round(v, 6))}</text>'
        )

    # Axis labels.
    parts.append(
        f'<text x="{MARGIN_LEFT + plot_w // 2}" y="{HEIGHT - 12}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="13">'
        f'{_escape(spec.x_label)}</text>'
    )
    parts.append(
        f'<text x="18" y="{MARGIN_TOP + plot_h // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {MARGIN_TOP + plot_h // 2})">{_escape(spec.y_label)}</text>'
    )

    # Series polylines with circle markers, then the legend beside the plot.
    for i, s in enumerate(spec.series):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{_fmt(px(a))},{_fmt(py(b))}" for a, b in zip(s.x, s.y))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="2"/>'
        )
        for a, b in zip(s.x, s.y):
            parts.append(
                f'<circle cx="{_fmt(px(a))}" cy="{_fmt(py(b))}" r="3" '
                f'fill="{color}"/>'
            )
        ly = MARGIN_TOP + 10 + 22 * i
        lx = ax_right + 12
        parts.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 24}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<circle cx="{lx + 12}" cy="{ly}" r="3" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{lx + 30}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="12">{_escape(s.label)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_chart(spec: ChartSpec, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_chart(spec))
