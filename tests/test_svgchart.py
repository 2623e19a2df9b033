"""Tests for the minimal SVG line-chart emitter."""

import math
import random
import sys
import xml.etree.ElementTree as ET

import pytest

from cbpsk.svgchart import _HEIGHT, _WIDTH, _log_ticks, render_line_chart
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


class TestLogTicks:
    # Every decade exponent of the floats, the subnormal ones included.
    LOWEST, HIGHEST = -323, 308

    def spans(self):
        rng = random.Random(5)
        pairs = [(self.LOWEST, self.HIGHEST), (-300, 300), (-5, 4), (-5, 5)]
        pairs += [(first, first + n) for first in (self.LOWEST, -7, 0, 3) for n in range(1, 60)]
        for _ in range(2000):
            a, b = sorted(rng.sample(range(self.LOWEST, self.HIGHEST + 1), 2))
            pairs.append((a, b))
        return pairs

    def test_at_most_ten_evenly_spaced_decades(self):
        for first, last in self.spans():
            # The axis ends on the end decades, and a little outside them.
            wider = (10.0**first * 0.97, min(10.0**last * 1.03, sys.float_info.max))
            for lo, hi in ((10.0**first, 10.0**last), wider):
                exps = [round(math.log10(t)) for t in _log_ticks(lo, hi)]
                assert [10.0**e for e in exps] == _log_ticks(lo, hi)
                if last - first < 10:
                    # Ten decades or fewer keep every tick.
                    assert exps == list(range(first, last + 1)), (first, last)
                    continue
                step = exps[1] - exps[0]
                assert step in (2, 5, 10, 20, 50, 100) and 2 <= len(exps) <= 10, (first, last)
                assert exps == list(range(exps[0], exps[-1] + 1, step))
                assert exps[0] % step == 0 and exps[0] - step < first and exps[-1] + step > last

    def test_whole_float_range(self):
        want = [10.0**d for d in range(-300, 301, 100)]
        assert _log_ticks(5e-324, sys.float_info.max) == want

    @pytest.mark.parametrize("lo,hi,want", [
        (1e-322, 1e-320, [1e-322, 1e-321, 1e-320]),
        (1e-323, 1e-322, [1e-323, 1e-322]),
    ])
    def test_subnormal_end_decades_are_ticks(self, lo, hi, want):
        # math.log10(10.0**-320) is -320.0000048 and math.log10(1e-322) is
        # -322.0052: a subnormal decade's float lies off 10^d by more than
        # 1e-9 in log10, and is a tick all the same.
        assert _log_ticks(lo, hi) == want

    def test_no_decade_inside_keeps_the_ends(self):
        assert _log_ticks(2.0, 3.0) == [2.0, 3.0]
