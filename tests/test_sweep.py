"""Tests for the sweep module: grids, scheme rates, curve datasets."""

import math
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from cbpsk import cocktail, mi
from cbpsk.cocktail import CocktailParams, adr_breakdown, eb_over_n0
from cbpsk.mi import Constellation, NoiseModel, awgn_capacity, bpsk_mi, constellation_mi
from cbpsk.svgchart import render_line_chart
from cbpsk.sweep import (
    CONVENTIONAL_SCHEMES,
    DEFAULT_RATIOS,
    RateCurve,
    SweepSpec,
    cocktail_gain_curves,
    cocktail_rate_curves,
    log_grid,
    modulation_rate_curves,
    scheme_rate,
    sweep_to_table,
)

LOG2E = math.log2(math.e)
# The figures' grid, perfbench's reference grid, and a log grid over every
# rho whose reference noise variance 1 / rho is finite.
REFERENCE_GRID = log_grid(1e-3, 1e2, 60)
WIDE_GRID = log_grid(5.6e-309, 1.7e308, 300)


def by_label(curves):
    return {c.label: c for c in curves}


class TestSpecValidation:
    def test_grid_must_ascend(self):
        with pytest.raises(ValueError):
            SweepSpec(snr_grid=(1.0, 1.0))
        with pytest.raises(ValueError):
            SweepSpec(snr_grid=(2.0, 1.0))
        with pytest.raises(ValueError):
            SweepSpec(snr_grid=())

    def test_grid_positive(self):
        with pytest.raises(ValueError):
            SweepSpec(snr_grid=(0.0, 1.0))

    def test_ratios_above_one(self):
        with pytest.raises(ValueError):
            SweepSpec(snr_grid=(1.0,), ratios=(1.0,))

    @pytest.mark.parametrize("ratios", [(3.5, 3.5), (3.5, 2.0, 3.5), (3.5, 3.5000000000000004)])
    def test_ratios_differ_in_their_labels(self, ratios):
        # Two ratios that print alike would put two curves under one label.
        with pytest.raises(ValueError, match="ratios"):
            SweepSpec(snr_grid=(1.0,), ratios=ratios)

    def test_axis_and_scheme_names(self):
        with pytest.raises(ValueError):
            SweepSpec(snr_grid=(1.0,), axis_mode="db")
        with pytest.raises(ValueError):
            SweepSpec(snr_grid=(1.0,), schemes=("bpsk", "16qam"))

    @pytest.mark.parametrize("call,name", [
        pytest.param(lambda: SweepSpec(snr_grid=None), "snr_grid", id="grid-None"),
        pytest.param(lambda: SweepSpec(snr_grid=1.0), "snr_grid", id="grid-float"),
        pytest.param(lambda: SweepSpec(snr_grid=(1.0,), ratios=3.0), "ratios", id="ratios-float"),
        pytest.param(lambda: SweepSpec(snr_grid=(1.0,), ratios=None), "ratios", id="ratios-None"),
        pytest.param(lambda: SweepSpec(snr_grid=(1.0,), schemes=None), "schemes", id="schemes-None"),
        pytest.param(lambda: RateCurve("a", None), "rows", id="rows-None"),
        pytest.param(lambda: RateCurve("a", (1.0,)), "rows", id="rows-of-floats"),
        pytest.param(lambda: RateCurve("a", ((1.0, 2.0, 3.0),)), "rows", id="row-of-three"),
        pytest.param(lambda: RateCurve("a", ((1.0,),)), "rows", id="row-of-one"),
        pytest.param(lambda: RateCurve("a", [[1.0, 0.5], [2.0]]), "rows", id="ragged-rows"),
    ])
    def test_containers_that_are_not_sequences(self, call, name):
        # The package's rule: anything else raises ValueError naming the
        # argument, not the TypeError of a loop over it.
        with pytest.raises(ValueError, match=name):
            call()


class TestRateCurveRows:
    # Messages as they were when every row went through the number rule.
    @pytest.mark.parametrize("rows,message", [
        (((True, 0.5),), "rows must be a finite number, got True"),
        (((1.0, False),), "rows must be a finite number, got False"),
        ((("1", 0.5),), "rows must be a finite number, got '1'"),
        (((math.nan, 0.5),), "rows must be a finite number, got nan"),
        (((1.0, math.inf),), "rows must be a finite number, got inf"),
        (((1.0, -math.inf),), "rows must be a finite number, got -inf"),
    ])
    def test_rejection_messages(self, rows, message):
        with pytest.raises(ValueError) as exc:
            RateCurve("a", rows)
        assert str(exc.value) == message

    def test_other_numbers_are_stored_as_plain_floats(self):
        for rows in (
            ((np.float64(1.0), 0.5), (2.0, np.float32(0.25))),
            [[1, 0.5], [2, 0.25]],
            np.array([[1.0, 0.5], [2.0, 0.25]]),
            ((x, y) for x, y in ((1.0, 0.5), (2.0, 0.25))),
        ):
            curve = RateCurve("a", rows)
            assert curve.rows == ((1.0, 0.5), (2.0, 0.25))
            assert all(type(v) is float and type(r) is tuple for r in curve.rows for v in r)

    def test_rows_keep_the_given_order(self):
        # Only the grid must ascend: on the Eb/N0 axis x may stay flat at its
        # low-SNR limit or turn back, and each row stays at its grid point.
        for rows in (((2.0, 0.5), (1.0, 0.5)), ((1.0, 0.5), (1.0, 0.6))):
            curve = RateCurve("a", [(np.float64(x), y) for x, y in rows])
            assert curve.rows == rows
            assert all(type(v) is float and type(r) is tuple for r in curve.rows for v in r)


class TestLogGrid:
    def test_endpoints_and_count(self):
        g = log_grid(1e-3, 1e2, 6)
        assert len(g) == 6
        assert g[0] == pytest.approx(1e-3, rel=1e-12)
        assert g[-1] == pytest.approx(1e2, rel=1e-12)
        assert all(b > a for a, b in zip(g, g[1:]))

    def test_one_point_is_the_start(self):
        assert log_grid(2.0, 3.0, 1) == (2.0,)

    def test_count_that_repeats_points_is_refused_by_name(self):
        # Two floats one ulp apart hold no third point between them.
        assert log_grid(1.0, 1.0000000000000002, 2) == (1.0, 1.0000000000000002)
        with pytest.raises(ValueError, match="count 3"):
            log_grid(1.0, 1.0000000000000002, 3)

    def test_end_points_are_exact_over_the_float_range(self):
        rng = np.random.default_rng(11)
        bounds = [(5e-324, sys.float_info.max), (1e307, sys.float_info.max), (1e300, 1.7e308)]
        bounds += [tuple(sorted(10.0 ** rng.uniform(-323.3, 308.25, 2))) for _ in range(400)]
        for start, stop in bounds:
            for count in (1, 2, 3, 7):
                g = log_grid(start, stop, count)
                assert len(g) == count and g[0] == start and g[-1] == (stop if count > 1 else start)
                assert all(type(x) is float and a < b for a, b in zip(g, g[1:]) for x in (a, b))

    def test_inner_point_past_the_float_range_is_a_repeat(self):
        # log10 of both bounds rounds to within an ulp of log10(float max),
        # and 10 ** log10(float max) overflows.
        with pytest.raises(ValueError, match="count 3"):
            log_grid(1.7976931348623e308, sys.float_info.max, 3)


class TestSchemeRates:
    def test_capacity_passthrough(self):
        assert scheme_rate("capacity", 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            scheme_rate("16qam", 1.0)

    def test_zero_snr_rates_are_zero(self):
        for s in ("bpsk", "qpsk", "4ask", "8psk", "capacity"):
            assert scheme_rate(s, 0.0) == 0.0

    @pytest.mark.parametrize("scheme", ["bpsk", "4ask", "qpsk", "8psk"])
    def test_subnormal_snr_is_refused_by_name(self, scheme):
        # The noise variance relative to the unit-energy alphabet, 1/(2 rho)
        # per dimension, overflows at subnormal rho.
        with pytest.raises(ValueError, match="snr_linear"):
            scheme_rate(scheme, 1e-320)
        assert scheme_rate("capacity", 1e-320) > 0.0

    def test_saturation_levels(self):
        assert scheme_rate("bpsk", 1e4) == pytest.approx(1.0, abs=1e-3)
        assert scheme_rate("qpsk", 1e4) == pytest.approx(2.0, abs=1e-3)
        assert scheme_rate("4ask", 1e4) == pytest.approx(2.0, abs=1e-3)
        assert scheme_rate("8psk", 1e4) == pytest.approx(3.0, abs=1e-3)

    @pytest.mark.parametrize("scheme", ["bpsk", "4ask", "qpsk", "8psk"])
    @pytest.mark.parametrize("rho", [4.12e307, 4.5e307, 1e308, sys.float_info.max])
    def test_saturates_up_to_the_largest_snr(self, scheme, rho):
        # At each of these rho the variance per dimension 1/(2 rho), in the
        # unit of the alphabet's kernel plan, lies below the floor 2^-1020
        # that keeps every exponent of the kernel finite: the rate stays
        # the saturated one of rho = 1e306, with no warning, rather than NaN
        # clamped to 0.
        assert scheme_rate(scheme, rho).hex() == scheme_rate(scheme, 1e306).hex()

    def test_low_snr_linearity_at_symbol_snr(self):
        # the figure-level rates run at the full capacity slope: every
        # real dimension sees half the total noise power
        rho = 1e-3
        for s in ("bpsk", "qpsk", "capacity"):
            ratio = scheme_rate(s, rho) / (rho * LOG2E)
            assert 0.95 <= ratio <= 1.0

    @pytest.mark.parametrize(
        "scheme,bits",
        [
            ("bpsk", ("0x1.8345262f3e6e7p-20", "0x1.71621a582f0c6p-1", "0x1.0000000000000p+0")),
            ("4ask", ("0x1.8345262f3ea70p-20", "0x1.8b0a4f4961bd3p-1", "0x1.fffe5c71fe901p+0")),
            ("qpsk", ("0x1.834532dfe6173p-20", "0x1.f19b5826bbbdep-1", "0x1.fffffffff8846p+0")),
            ("8psk", ("0x1.834532dfe5f21p-20", "0x1.f6375a1035490p-1", "0x1.7fedf60a4525cp+1")),
        ],
    )
    def test_rates_keep_their_bits(self, scheme, bits):
        # float.hex at rho = 1e-6, 1 and 50, captured with the kernel that
        # redid the symmetry search at every call: keeping each alphabet's
        # kernel plan moved no bit. Folding the 2-D rule by each class's
        # stabilizer changed the summation order of qpsk and 8psk, whose
        # values were captured again (at most 142 ulps, 3.0e-20 bits, at
        # rho = 1e-6); the 1-D rates kept their bits. The default order
        # chosen per SNR runs every rate at rho = 1e-6 on order 8, whose
        # values were captured again: bpsk -1.1e-13, 4ask 1.9e-14, qpsk
        # -9.5e-14 and 8psk -1.2e-13 relative to 30-digit mpmath values.
        # 8psk was captured again when its eight points became one class,
        # summed as the axis point's term: against the trapezoid oracle of
        # tests/test_mi.py at h = 0.06 (with log1p and expm1 at rho = 1e-6),
        # its errors went from -1.4e-19, -1.1e-16 and -3.1e-15 bits to
        # -3.9e-20 (-2.7e-14 relative), 0 and -3.1e-15 (the same bits).
        # qpsk was captured again when it came to run as its 1-D rail, with
        # the weight doubled: against 2 x the 30-digit rate of the rail its
        # errors went from -1.4e-19, +1.1e-16 and +1.5e-14 bits to +5.6e-20
        # (+3.8e-14 relative), +4.4e-16 and +6.0e-15.
        assert tuple(scheme_rate(scheme, rho).hex() for rho in (1e-6, 1.0, 50.0)) == bits

    def test_bpsk_scheme_is_kernel_at_half_noise(self):
        # The reference channel's total noise power is 1, so the one real
        # dimension bpsk uses carries half of it.
        rho = 0.37
        expected = bpsk_mi(math.sqrt(rho), NoiseModel(1.0))
        assert scheme_rate("bpsk", rho) == pytest.approx(expected, abs=1e-12)


class TestModulationCurves:
    def test_capacity_row_at_unit_snr(self):
        spec = SweepSpec(snr_grid=(0.5, 1.0, 2.0), schemes=("capacity",))
        curve = modulation_rate_curves(spec)[0]
        assert (1.0, 1.0) in [(x, round(y, 12)) for x, y in curve.rows]

    def test_rejects_cocktail_scheme(self):
        with pytest.raises(ValueError):
            SweepSpec(snr_grid=(1.0,), schemes=("cocktail",))

    def test_monotone_rates(self):
        spec = SweepSpec(snr_grid=log_grid(1e-3, 1e2, 20))
        for curve in modulation_rate_curves(spec):
            ys = curve.ys
            assert all(b >= a - 1e-12 for a, b in zip(ys, ys[1:])), curve.label

    def test_second_sweep_builds_no_rule(self):
        # The default order changes with the SNR, so one sweep of the figure's
        # grid asks for a rule per order and stabilizer; the cache keeps them
        # all, and a second sweep rebuilds none.
        spec = SweepSpec(snr_grid=log_grid(1e-3, 1e2, 60))
        modulation_rate_curves(spec)
        misses = mi._unit_rule.cache_info().misses
        modulation_rate_curves(spec)
        assert mi._unit_rule.cache_info().misses == misses

    def test_grid_refinement_preserves_shared_points(self):
        coarse = SweepSpec(snr_grid=(0.01, 1.0), schemes=("bpsk",))
        fine = SweepSpec(snr_grid=(0.01, 0.1, 1.0), schemes=("bpsk",))
        a = modulation_rate_curves(coarse)[0]
        b = modulation_rate_curves(fine)[0]
        assert a.rows[0] == b.rows[0]
        assert a.rows[1] == b.rows[2]

    def test_eb_axis_definition(self):
        spec = SweepSpec(snr_grid=(0.5,), schemes=("bpsk",), axis_mode="eb_n0_db")
        curve = modulation_rate_curves(spec)[0]
        x, y = curve.rows[0]
        assert x == pytest.approx(10.0 * math.log10(0.5 / y), abs=1e-12)

    def test_bpsk_qpsk_coincide_per_stream_on_eb_axis(self):
        # a QPSK symbol carries two independent antipodal streams: at twice
        # the symbol SNR it lands on the same Eb/N0 abscissa as BPSK with
        # exactly twice the rate (the 1-D and 2-D quadrature routes must
        # agree)
        grid = log_grid(1e-3, 10.0, 12)
        b = modulation_rate_curves(SweepSpec(snr_grid=grid, schemes=("bpsk",), axis_mode="eb_n0_db"))[0]
        q = modulation_rate_curves(
            SweepSpec(snr_grid=tuple(2.0 * r for r in grid), schemes=("qpsk",), axis_mode="eb_n0_db")
        )[0]
        for (xb, yb), (xq, yq) in zip(b.rows, q.rows):
            assert abs(yq - 2.0 * yb) < 1e-6
            assert abs(xq - xb) < 1e-6


class TestCocktailCurves:
    def test_reference_bpsk_matches_scheme_rate(self):
        grid = (0.01, 0.1, 1.0)
        spec = SweepSpec(snr_grid=grid, ratios=(3.5,), schemes=("capacity", "bpsk"))
        curves = by_label(cocktail_rate_curves(spec))
        for rho, (x, y) in zip(grid, curves["bpsk"].rows):
            assert x == rho
            assert y == pytest.approx(scheme_rate("bpsk", rho), abs=1e-12)

    def test_saturates_at_two_bits(self):
        spec = SweepSpec(snr_grid=(1e4,), ratios=(3.5,), schemes=())
        curve = cocktail_rate_curves(spec)[0]
        assert curve.ys[0] == pytest.approx(2.0, abs=1e-3)

    def test_low_snr_limit_on_eb_axis(self):
        spec = SweepSpec(snr_grid=(1e-4,), ratios=(3.5,), schemes=(), axis_mode="eb_n0_db")
        curve = cocktail_rate_curves(spec)[0]
        assert curve.rows[0][0] == pytest.approx(-3.41, abs=0.05)

    def test_ratio_3_5_left_of_capacity_at_low_rates(self):
        grid = log_grid(1e-4, 10.0, 60)
        spec = SweepSpec(snr_grid=grid, ratios=(3.5,), schemes=("capacity",), axis_mode="eb_n0_db")
        curves = by_label(cocktail_rate_curves(spec))
        cap = curves["capacity"]
        ck = curves["cocktail r=3.5"]
        for target in (0.02, 0.05, 0.09):
            eb_cap = np.interp(target, cap.ys, cap.xs)
            eb_ck = np.interp(target, ck.ys, ck.xs)
            assert eb_ck < eb_cap

    def test_gain_curve_signs(self):
        spec = SweepSpec(snr_grid=(0.01, 10.0), ratios=(3.5,))
        curve = cocktail_gain_curves(spec)[0]
        assert curve.ys[0] > 0
        assert curve.ys[1] < 0

    def test_gain_matches_closed_form_at_low_snr(self):
        from cbpsk.cocktail import CocktailParams, adr_gain_low_snr

        spec = SweepSpec(snr_grid=(0.005,), ratios=(3.5,))
        gain = cocktail_gain_curves(spec)[0].ys[0]
        closed = adr_gain_low_snr(CocktailParams.from_ratio(3.5, 0.005), NoiseModel(1.0))
        assert closed == pytest.approx(gain, rel=0.10)

    def test_ratio_ordering_flips_with_snr(self):
        spec = SweepSpec(snr_grid=(0.01, 10.0), ratios=(1.5, 3.5), schemes=())
        curves = by_label(cocktail_rate_curves(spec))
        low_15, high_15 = curves["cocktail r=1.5"].ys
        low_35, high_35 = curves["cocktail r=3.5"].ys
        assert low_35 > low_15
        assert high_35 < high_15

    def test_requires_ratios(self):
        spec = SweepSpec(snr_grid=(1.0,), ratios=())
        with pytest.raises(ValueError):
            cocktail_rate_curves(spec)
        with pytest.raises(ValueError):
            cocktail_gain_curves(spec)

    def test_gain_rows_derive_from_rate_rows(self):
        spec = SweepSpec(snr_grid=(0.01, 0.1, 1.0), ratios=(1.5, 3.5), axis_mode="eb_n0_db")
        rates = by_label(cocktail_rate_curves(spec))
        for ratio, gain in zip(spec.ratios, cocktail_gain_curves(spec)):
            assert gain.label == f"gain r={ratio:g}"
            for rho, (x, total), (gx, g) in zip(spec.snr_grid, rates[f"cocktail r={ratio:g}"].rows, gain.rows):
                assert gx == x
                assert g == total - awgn_capacity(rho)


class TestCurvesAreScalarRates:
    # A scheme curve is one kernel call over its grid, not a scheme_rate
    # call per point; every row keeps scheme_rate's bits all the same.
    @pytest.mark.parametrize("grid,axis", [
        pytest.param(REFERENCE_GRID, "linear_snr", id="reference-linear"),
        pytest.param(REFERENCE_GRID, "eb_n0_db", id="reference-ebn0"),
        pytest.param(WIDE_GRID, "linear_snr", id="wide-linear"),
    ])
    def test_rows_are_scheme_rate_to_the_bit(self, grid, axis):
        spec = SweepSpec(snr_grid=grid, ratios=(3.5,), axis_mode=axis)
        curves = modulation_rate_curves(spec) + cocktail_rate_curves(spec)[:2]
        assert [c.label for c in curves] == [*CONVENTIONAL_SCHEMES, "capacity", "bpsk"]
        for curve in curves:
            want = [scheme_rate(curve.label, rho) for rho in grid]
            assert [y.hex() for y in curve.ys] == [w.hex() for w in want], curve.label
            if axis == "linear_snr":
                assert curve.xs == grid
            else:
                xs = [(10.0 * math.log10(rho / w)).hex() for rho, w in zip(grid, want)]
                assert [x.hex() for x in curve.xs] == xs, curve.label

    @pytest.mark.parametrize("scheme", ["bpsk", "4ask", "qpsk", "8psk"])
    def test_point_below_the_grid_raises_scheme_rates_error(self, scheme):
        # 1 / 5.5e-309 overflows; 1 / 5.6e-309, the wide grid's start, does not.
        message = "snr_linear is too small for a finite noise variance, got 5.5e-309"
        with pytest.raises(ValueError) as scalar:
            scheme_rate(scheme, 5.5e-309)
        with pytest.raises(ValueError) as curve:
            modulation_rate_curves(SweepSpec(snr_grid=(5.5e-309, 5.6e-309, 1.0), schemes=(scheme,)))
        assert str(scalar.value) == str(curve.value) == message

    # The linear axis over every rho with a finite reference variance; the
    # Eb/N0 axis from 1e-12 up, led by one point whose total is subnormal.
    @pytest.mark.parametrize("grid,axis", [
        pytest.param(WIDE_GRID, "linear_snr", id="wide-linear"),
        pytest.param((1e-320, *log_grid(1e-12, 1e8, 81)), "eb_n0_db", id="low-to-high-ebn0"),
    ])
    def test_cocktail_rows_are_scalar_totals_to_the_bit(self, grid, axis):
        spec = SweepSpec(snr_grid=grid, ratios=(1.01, 3.5, 1e155), schemes=(), axis_mode=axis)
        for ratio, curve, gain in zip(spec.ratios, cocktail_rate_curves(spec), cocktail_gain_curves(spec)):
            assert curve.label == f"cocktail r={ratio:.12g}"
            for rho, (x, y), (gx, g) in zip(grid, curve.rows, gain.rows):
                params = CocktailParams.from_ratio(ratio, rho)
                total = adr_breakdown(params, NoiseModel(1.0)).total
                if axis == "linear_snr":
                    want_x = rho
                elif total < sys.float_info.min:
                    want_x = 10.0 * math.log10(eb_over_n0(params, NoiseModel(1.0)))
                else:
                    want_x = 10.0 * math.log10(rho / total)
                assert (x.hex(), y.hex()) == (want_x.hex(), total.hex()), (ratio, rho)
                assert (gx.hex(), g.hex()) == (want_x.hex(), (total - awgn_capacity(rho)).hex()), (ratio, rho)

    def test_point_below_the_grid_raises_in_the_cocktail_reference_rows(self):
        message = "snr_linear is too small for a finite noise variance, got 5.5e-309"
        with pytest.raises(ValueError) as curve:
            cocktail_rate_curves(SweepSpec(snr_grid=(5.5e-309, 1.0), ratios=(3.5,), schemes=("capacity", "bpsk")))
        assert str(curve.value) == message


class TestEbN0AxesAscend:
    # RateCurve keeps its rows in any order, but on these grids every Eb/N0
    # axis ascends: a step back here shows a rate that has lost digits, such
    # as a cancelling H(Y) - H(N), not a least Eb/N0 above zero SNR.
    @pytest.mark.parametrize("grid,ratios", [
        pytest.param(REFERENCE_GRID, DEFAULT_RATIOS, id="reference"),
        pytest.param((1e-320, *log_grid(1e-12, 1e8, 81)), (1.01, 3.5, 1e155), id="low-to-high"),
    ])
    def test_every_curve_ascends(self, grid, ratios):
        spec = SweepSpec(snr_grid=grid, ratios=ratios, schemes=("capacity",), axis_mode="eb_n0_db")
        # The constellation schemes refuse a subnormal rho, so they start at
        # the first normal point; capacity and the cocktail take every point.
        normal = SweepSpec(snr_grid=[r for r in grid if r >= sys.float_info.min], axis_mode="eb_n0_db")
        curves = modulation_rate_curves(normal) + cocktail_rate_curves(spec) + cocktail_gain_curves(spec)
        assert len(curves) == len(CONVENTIONAL_SCHEMES) + 1 + 2 * len(ratios)
        for curve in curves:
            assert all(a < b for a, b in zip(curve.xs, curve.xs[1:])), curve.label


class TestEbN0BelowTheNormalFloats:
    # Where a rate is below the smallest normal float it has lost digits,
    # or is 0, and rho / rate with it; the point is on its low-SNR series,
    # whose Eb/N0 is the limit to every digit.
    LN2_DB = 10.0 * math.log10(math.log(2.0))

    def test_cocktail_and_capacity_take_their_limits(self):
        spec = SweepSpec(snr_grid=(1e-320,), ratios=(3.5,), schemes=("capacity",), axis_mode="eb_n0_db")
        curves = by_label(cocktail_rate_curves(spec))
        limit = 10.0 * math.log10(eb_over_n0(CocktailParams.from_ratio(3.5, 1e-320), NoiseModel(1.0)))
        assert curves["cocktail r=3.5"].xs == (limit,) and round(limit, 9) == -3.410181269
        assert curves["capacity"].xs == (self.LN2_DB,) and round(self.LN2_DB, 11) == -1.59174538955
        assert cocktail_gain_curves(spec)[0].xs == (limit,)

    @pytest.mark.parametrize("rho", [5.6e-309, 1e-308, 1.5e-308])
    def test_schemes_with_a_subnormal_rate_take_ln_2(self, rho):
        spec = SweepSpec(snr_grid=(rho,), axis_mode="eb_n0_db")
        for curve in modulation_rate_curves(spec):
            assert curve.ys[0] < sys.float_info.min and curve.xs == (self.LN2_DB,), curve.label

    def test_normal_rates_tend_to_the_limits(self):
        spec = SweepSpec(snr_grid=(1e-300,), ratios=(3.5,), axis_mode="eb_n0_db")
        limit = 10.0 * math.log10(eb_over_n0(CocktailParams.from_ratio(3.5, 1e-320), NoiseModel(1.0)))
        for curve in modulation_rate_curves(spec) + cocktail_rate_curves(spec):
            assert curve.ys[0] >= sys.float_info.min
            want = limit if curve.label.startswith("cocktail") else self.LN2_DB
            assert curve.xs[0] == pytest.approx(want, abs=1e-12), curve.label

    def test_capacity_stays_flat_at_its_limit_over_the_float_range(self):
        # Far down the series rho / rate is ln 2 to every digit, so x repeats.
        grid = log_grid(5.6e-309, 1.7e308, 60)
        curve = modulation_rate_curves(SweepSpec(snr_grid=grid, schemes=("capacity",), axis_mode="eb_n0_db"))[0]
        assert len(curve.rows) == 60 and curve.xs[0] == self.LN2_DB
        assert any(a == b for a, b in zip(curve.xs, curve.xs[1:]))
        assert [y.hex() for y in curve.ys] == [awgn_capacity(rho).hex() for rho in grid]


class TestOneEbN0Rule:
    # The sweep's cocktail x is 10 log10 of rho / total, and eb_over_n0 forms
    # (e1 / variance) / total with e1 rebuilt from from_ratio's alpha and
    # beta. Where the total is a normal float the two quotients were measured
    # at most 3 ulp apart on these grids and ratios.
    @pytest.mark.parametrize("grid", [
        pytest.param(REFERENCE_GRID, id="reference"),
        pytest.param(log_grid(1e-300, 1e300, 601), id="float-range"),
        pytest.param(log_grid(1e-12, 1e8, 81), id="low-to-high"),
    ])
    def test_sweep_quotient_and_eb_over_n0_agree(self, grid):
        spec = SweepSpec(snr_grid=grid, ratios=(*DEFAULT_RATIOS, 1.01, 1e155), schemes=(), axis_mode="eb_n0_db")
        for ratio, curve in zip(spec.ratios, cocktail_rate_curves(spec)):
            for rho, (x, total) in zip(grid, curve.rows):
                assert total >= sys.float_info.min and x == 10.0 * math.log10(rho / total), (ratio, rho)
                want = eb_over_n0(CocktailParams.from_ratio(ratio, rho), NoiseModel(1.0))
                assert abs(rho / total - want) <= 3 * math.ulp(want), (ratio, rho)

    @pytest.mark.parametrize("scheme", CONVENTIONAL_SCHEMES)
    def test_zero_mean_limit_is_ln_2_exactly(self, scheme):
        # rho 1e-308 gives each scheme a subnormal rate; a rate of 0 is the
        # limit at zero SNR itself, as cbpsk limit reads it.
        rate = scheme_rate(scheme, 1e-308)
        assert 0.0 < rate < sys.float_info.min
        assert cocktail._eb_over_n0(1e-308, rate) == cocktail._eb_over_n0(0.0, 0.0) == math.log(2.0)

    def test_cocktail_limit_is_eb_over_n0s(self):
        params = CocktailParams.from_ratio(3.5, 1e-320)
        assert cocktail._eb_over_n0(0.0, 0.0, params) == eb_over_n0(params, NoiseModel(1.0))


class TestCurveThatTurnsBack:
    # Gray-label BICM of the cocktail 4-PAM {-alpha, -beta/2, beta/2, alpha}:
    # the sign bit, I(X;Y) - bpsk_mi((alpha - beta/2)/2), plus the Gray second
    # bit, I(X;Y) - (bpsk_mi(alpha) + bpsk_mi(beta/2))/2. At ratio 5 its least
    # Eb/N0 lies near rho 0.034, not at rho -> 0, so its x descends first.
    GRID = log_grid(1e-4, 1e2, 61)

    @staticmethod
    def gray_bicm(rho):
        params = CocktailParams.from_ratio(5.0, rho)
        a, b, noise = params.alpha, params.beta, NoiseModel(1.0)
        true = constellation_mi(Constellation((-a, -b / 2, b / 2, a)), noise)
        sign_bit = true - bpsk_mi((a - b / 2) / 2, noise)
        return sign_bit + true - 0.5 * bpsk_mi(a, noise) - 0.5 * bpsk_mi(b / 2, noise)

    def test_keeps_grid_order_on_the_eb_n0_axis(self):
        rates = [self.gray_bicm(rho) for rho in self.GRID]
        xs = [10.0 * math.log10(rho / rate) for rho, rate in zip(self.GRID, rates)]
        curve = RateCurve("gray r=5", zip(xs, rates))
        assert curve.rows == tuple(zip(xs, rates))
        assert round(xs[0], 3) == 0.634 and round(min(xs), 3) == 0.621
        assert 0.02 < self.GRID[xs.index(min(xs))] < 0.05
        assert any(b < a for a, b in zip(xs, xs[1:]))

        svg = render_line_chart([curve], x_label="Eb/N0 (dB)")
        polyline = next(e for e in ET.fromstring(svg).iter() if e.tag.endswith("polyline"))
        px, py = zip(*(map(float, p.split(",")) for p in polyline.get("points").split()))
        # Drawn in row order: the rates rise, so the points climb, and the
        # pixels turn back where x does, left to the least Eb/N0 and then right.
        assert len(px) == 61 and all(b <= a for a, b in zip(py, py[1:]))
        assert px.index(min(px)) == xs.index(min(xs)) and px[0] > min(px) < px[-1]


class TestTable:
    def test_empty(self):
        assert sweep_to_table([]) == []
        assert sweep_to_table([RateCurve("a", ())]) == []

    def test_row_count(self):
        curve = RateCurve("a", ((1.0, 0.1), (2.0, 0.2), (3.0, 0.3)))
        assert len(sweep_to_table([curve])) == 3

    def test_roundtrip_identity(self):
        curves = [
            RateCurve("a", ((1.0, 0.1), (2.0, 0.2))),
            RateCurve("b", ((0.5, -0.1), (1.5, 0.4), (2.5, 0.6))),
        ]
        assert sweep_to_table(curves) == [
            ("a", 1.0, 0.1),
            ("a", 2.0, 0.2),
            ("b", 0.5, -0.1),
            ("b", 1.5, 0.4),
            ("b", 2.5, 0.6),
        ]
