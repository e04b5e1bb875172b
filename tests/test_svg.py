"""Tests for the deterministic SVG chart writer.

Geometry is verified by parsing the emitted document and comparing
coordinates of markers, ticks and polylines; no rasterization involved.
"""

import hashlib
import xml.etree.ElementTree as ET

import pytest

from curvact.svg import (
    MARGIN_LEFT,
    MARGIN_RIGHT,
    WIDTH,
    ChartSpec,
    Series,
    render_chart,
    write_chart,
)

PLOT_RIGHT = WIDTH - MARGIN_RIGHT


def _chart(series, log_x=False):
    return ChartSpec(title="demo", x_label="x", y_label="y", series=series,
                     log_x=log_x)


def _parse(svg_text):
    root = ET.fromstring(svg_text)
    ns = "{http://www.w3.org/2000/svg}"
    return root, ns


def _data_circles(svg_text):
    root, ns = _parse(svg_text)
    out = []
    for c in root.iter(f"{ns}circle"):
        if float(c.get("cx")) <= PLOT_RIGHT:
            out.append((float(c.get("cx")), float(c.get("cy"))))
    return out


def _tick_positions(svg_text):
    root, ns = _parse(svg_text)
    ticks = {}
    for t in root.iter(f"{ns}text"):
        if t.get("text-anchor") == "middle" and t.get("y") is not None:
            try:
                y = float(t.get("y"))
            except ValueError:
                continue
            if 360.0 < y < 420.0:
                ticks[t.text] = float(t.get("x"))
    return ticks


class TestSeries:
    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="same length"):
            Series("a", [1.0, 2.0], [0.5])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            Series("a", [], [])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Series("a", [1.0], [float("nan")])

    def test_rejects_unsorted_x(self):
        with pytest.raises(ValueError, match="sorted"):
            Series("a", [2.0, 1.0], [0.0, 0.0])

    def test_coerces_to_float(self):
        s = Series("a", [1, 2], [3, 4])
        assert s.x == [1.0, 2.0] and s.y == [3.0, 4.0]


class TestChartSpec:
    def test_rejects_empty_series_list(self):
        with pytest.raises(ValueError, match="at least one series"):
            _chart([])

    def test_log_x_requires_positive_x(self):
        s = Series("a", [0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="positive"):
            _chart([s], log_x=True)
        _chart([Series("a", [0.5, 1.0], [0.0, 1.0])], log_x=True)


class TestRenderChart:
    def test_emits_wellformed_standalone_svg(self):
        svg = render_chart(_chart([Series("a", [0.0, 1.0], [1.0, 2.0])]))
        assert svg.startswith('<?xml version="1.0"')
        root, ns = _parse(svg)
        assert root.tag == f"{ns}svg"
        assert root.get("width") == str(WIDTH)

    def test_same_spec_gives_identical_bytes(self, tmp_path):
        spec = _chart([Series("a", [0.5, 7.0, 50.0], [0.3, 0.1, 0.4])], log_x=True)
        assert render_chart(spec) == render_chart(spec)
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        write_chart(spec, p1)
        write_chart(spec, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_one_polyline_and_marker_per_point_per_series(self):
        spec = _chart([
            Series("a", [1.0, 2.0, 3.0], [0.1, 0.2, 0.3]),
            Series("b", [1.0, 2.0, 3.0], [0.3, 0.2, 0.1]),
        ])
        svg = render_chart(spec)
        root, ns = _parse(svg)
        polylines = list(root.iter(f"{ns}polyline"))
        assert len(polylines) == 2
        for p in polylines:
            assert len(p.get("points").split()) == 3
        assert len(_data_circles(svg)) == 6

    def test_single_point_series_gets_one_marker_each(self):
        spec = _chart([Series("a", [7.0], [0.5]), Series("b", [7.0], [0.6])])
        svg = render_chart(spec)
        assert len(_data_circles(svg)) == 2

    def test_minimum_value_sits_lowest_at_its_curvature(self):
        # SVG y grows downward, so the smallest data value must be the
        # marker with the largest cy, and it must sit at the x tick of 7.
        spec = _chart([Series("a", [0.5, 7.0, 50.0], [0.31, 0.11, 0.42])],
                      log_x=True)
        svg = render_chart(spec)
        circles = _data_circles(svg)
        lowest = max(circles, key=lambda c: c[1])
        ticks = _tick_positions(svg)
        assert lowest[0] == ticks["7"]

    def test_log_x_spaces_decades_evenly(self):
        spec = _chart([Series("a", [1.0, 10.0, 100.0], [0.0, 1.0, 2.0])],
                      log_x=True)
        ticks = _tick_positions(render_chart(spec))
        gap1 = ticks["10"] - ticks["1"]
        gap2 = ticks["100"] - ticks["10"]
        assert abs(gap1 - gap2) < 0.011

    def test_linear_x_keeps_data_spacing(self):
        spec = _chart([Series("a", [0.0, 5.0, 10.0], [0.0, 1.0, 2.0])])
        ticks = _tick_positions(render_chart(spec))
        gap1 = ticks["5"] - ticks["0"]
        gap2 = ticks["10"] - ticks["5"]
        assert abs(gap1 - gap2) < 0.011

    def test_flat_series_still_renders(self):
        svg = render_chart(_chart([Series("a", [1.0, 2.0], [0.7, 0.7])]))
        assert "<polyline" in svg

    def test_labels_and_title_appear(self):
        spec = ChartSpec(title="robustness", x_label="curvature bound",
                         y_label="accuracy",
                         series=[Series("beta=1", [1.0], [0.5])])
        svg = render_chart(spec)
        for text in ("robustness", "curvature bound", "accuracy", "beta=1"):
            assert text in svg

    def test_markup_characters_in_text_stay_text(self):
        spec = ChartSpec(title="a<b & c", x_label="x > 0", y_label="p & q",
                         series=[Series("beta<1 & more", [1, 2], [1, 2])])
        root, ns = _parse(render_chart(spec))
        texts = [t.text for t in root.iter(f"{ns}text")]
        assert texts[0] == "a<b & c"
        for text in ("x > 0", "p & q", "beta<1 & more"):
            assert text in texts


# sha256 of render_chart's output for fixed specs: one linear series; seven
# series on a log axis, wrapping the palette, with markup in every label; a
# flat series of negative values.  A rewrite of the writer must keep these
# bytes.
GOLDEN = (
    (ChartSpec("demo", "x", "y", [Series("a", [0.0, 1.0, 2.5], [0.3, 0.1, 0.4])]),
     "1d995a97310d93242d2017f82facde90d6458e6f49ba092229b88b0078dc57c8"),
    (ChartSpec("a<b & c", "curvature > 0", "p & q",
               [Series(f"beta<{k} & more", [0.5, 2.0, 7.0, 50.0],
                       [0.1 * k, 0.5 - 0.05 * k, 0.02 * k * k, 1.0 / (k + 1)])
                for k in range(7)], log_x=True),
     "52987ab0f1fabdf57a95f3ee2945729c77e1f3b2368816362517e2c0d1f90509"),
    (ChartSpec("flat", "x", "y", [Series("s", [3.0, 1e7], [-2.5, -2.5])]),
     "3fd849b04deeae4692ff6c6957b7f6ab81b7f8ed0ece414152fc9dbea86f97a8"),
)


@pytest.mark.parametrize("k", range(len(GOLDEN)))
def test_render_chart_bytes_are_pinned(k):
    spec, digest = GOLDEN[k]
    assert hashlib.sha256(render_chart(spec).encode("utf-8")).hexdigest() == digest
