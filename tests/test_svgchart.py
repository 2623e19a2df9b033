"""Tests for the minimal SVG line-chart emitter."""

import xml.etree.ElementTree as ET

import pytest

from cbpsk.svgchart import _HEIGHT, _WIDTH, render_line_chart
from cbpsk.sweep import RateCurve

CURVES = [
    RateCurve("alpha", ((0.001, 0.0), (0.1, 0.4), (10.0, 1.0))),
    RateCurve("beta", ((0.001, -0.2), (0.1, 0.1), (10.0, 2.0))),
]


def strip_ns(tag):
    return tag.rsplit("}", 1)[-1]


class TestRender:
    def test_well_formed_and_versioned(self):
        svg = render_line_chart(CURVES, title="t", x_label="x", y_label="y")
        assert svg.startswith("<?xml")
        assert 'version="1.1"' in svg
        root = ET.fromstring(svg)
        assert strip_ns(root.tag) == "svg"

    def test_markup_characters_in_text_are_escaped(self):
        text = "a<b & c>d"
        curves = [RateCurve(text, CURVES[0].rows), RateCurve("plain", CURVES[1].rows)]
        # Unescaped, the parser rejects the document as not well-formed.
        root = ET.fromstring(render_line_chart(curves, title=text, x_label=text, y_label=text))
        texts = [e.text for e in root.iter() if strip_ns(e.tag) == "text"]
        assert texts.count(text) == 4 and "plain" in texts

    def test_one_polyline_per_curve(self):
        svg = render_line_chart(CURVES)
        root = ET.fromstring(svg)
        polylines = [e for e in root.iter() if strip_ns(e.tag) == "polyline"]
        assert len(polylines) == len(CURVES)

    def test_legend_labels_present(self):
        svg = render_line_chart(CURVES)
        assert "alpha" in svg and "beta" in svg

    def test_points_inside_viewport(self):
        svg = render_line_chart(CURVES, log_x=True)
        root = ET.fromstring(svg)
        for e in root.iter():
            if strip_ns(e.tag) != "polyline":
                continue
            for pair in e.get("points").split():
                x, y = map(float, pair.split(","))
                assert 0 <= x <= _WIDTH
                assert 0 <= y <= _HEIGHT

    def test_log_axis_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            render_line_chart([RateCurve("z", ((0.0, 0.0), (1.0, 1.0)))], log_x=True)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            render_line_chart([])

    def test_deterministic(self):
        assert render_line_chart(CURVES) == render_line_chart(CURVES)
