"""The public number functions over their whole domain, with warnings as
errors: amplitudes from 1e-300 to the largest float, noise variances from
1e-323 to the largest float, and SNRs from 5.6e-309 to the largest float.

The simulator rows hold the Monte Carlo oracle to the kernel at every
scale, on small sample counts. Each row sits where every antipodal pair is
either saturated (a/sigma >= 40) or nearly silent (a/sigma <= 1e-6), or
between the two on mc_bpsk_mi's own standard error. The coverage rows hold
the kernel-side functions to their ranges, their monotonicity and their
scale invariance.
"""

import json
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from cbpsk.cli import main
from cbpsk.cocktail import CocktailParams, adr_breakdown, adr_gain_low_snr, eb_over_n0, energy_report
from cbpsk.linksim import SimConfig, mc_bpsk_mi, run_link
from cbpsk.mi import LOG2E, NoiseModel, bpsk_mi, low_snr_capacity
from cbpsk.sweep import CONVENTIONAL_SCHEMES, scheme_rate

DRAWS = 1 << 15
# The plug-in statistic is n^2 / 2 where the pair is saturated and
# n^2 / 2 - ln 2 where it is silent: variance 1/2 in nats^2 at both ends.
EDGE_STDERR = math.sqrt(0.5 / DRAWS) * LOG2E


def close_to_kernel(estimate, stderr, rate):
    return math.isfinite(estimate) and abs(estimate - rate) <= 4.5 * stderr


class TestSimulatorDomain:
    @pytest.mark.parametrize(
        "amplitude, variance",
        [(a, 2.0) for a in (1e-150, 1e-8, 0.5, 1.0, 3.0, 1e8, 1e16, 1e100, 1e154, 1e200, 1.7e308)]
        + [(1.0, v) for v in (1e-323, 1e-320, 1e-315, 1e-310, 1e-300, 1e-100, 1e100, 1e300)],
    )
    def test_mc_bpsk_mi(self, amplitude, variance):
        noise = NoiseModel(variance)
        estimate, stderr = mc_bpsk_mi(amplitude, noise, DRAWS, seed=3)
        rate = bpsk_mi(amplitude, noise)
        assert stderr > 0.0 and close_to_kernel(estimate, stderr, rate), (estimate, stderr, rate)
        if rate == 1.0:
            assert close_to_kernel(estimate, EDGE_STDERR, 1.0)
            assert abs(stderr / EDGE_STDERR - 1.0) <= 0.15, stderr

    @pytest.mark.parametrize("mode", ["decision_directed", "genie_aided"])
    @pytest.mark.parametrize(
        "params, variance",
        [
            pytest.param(CocktailParams(a, a / 10.0), 1.0, id=f"alpha={a:g}")
            for a in (1e-150, 1e-20, 1e16, 1e30, 1e100, 1e160, 1e200, 1.7e308)
        ]
        + [
            pytest.param(CocktailParams(3.5, 1.0), v, id=f"variance={v:g}")
            for v in (1e-315, 1e-310, 1e-300, 1e-100, 1e100, 1e300)
        ],
    )
    def test_run_link(self, params, variance, mode):
        noise = NoiseModel(variance)
        report = run_link(SimConfig(params, noise, DRAWS, 0, mode))
        adr = adr_breakdown(params, noise)
        for got, rate in ((report.empirical_mi_x1, adr.r1), (report.empirical_mi_x2, adr.r2)):
            assert close_to_kernel(got, EDGE_STDERR, rate), (report, adr)
        if adr.r1 == adr.r2 == 1.0:
            assert report.errors_x1 == report.errors_x2 == 0

    def test_simulate_command_at_input_energy_5e199(self, capsys):
        code = main(["simulate", "--alpha", "1e100", "--beta", "1e99", "--noise-var", "1",
                     "--n", "65536", "--seed", "0"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert abs(json.loads(captured.out)["report"]["empirical_mi_x1"] - 1.0) <= 0.02


AMPLITUDES = [10.0**e for e in range(-150, 151, 10)]
# Per-dimension SNRs q^2 on the series, the quadrature and the saturation.
# The cocktail rows skip the series: 2 a^2 / SNR would overflow at 1e150,
# and between the series and SNR 0.01 the quadrature keeps only about
# 1e-16 / q of its relative digits.
SNRS = (1e-12, 0.3, 4.0, 2000.0)


class TestCoverage:
    @pytest.mark.parametrize("amplitude", AMPLITUDES)
    def test_bpsk_mi_is_scale_free(self, amplitude):
        for s in SNRS:
            want = bpsk_mi(math.sqrt(s), NoiseModel(2.0))
            got = bpsk_mi(math.sqrt(s) * amplitude, NoiseModel(2.0 * amplitude * amplitude))
            assert 0.0 <= got <= 1.0 and abs(got - want) <= 4e-15 * want, (s, got, want)

    def test_bpsk_mi_rises_with_amplitude(self):
        rates = [bpsk_mi(a, NoiseModel(2.0)) for a in AMPLITUDES]
        assert all(0.0 <= r <= 1.0 for r in rates) and rates == sorted(rates)
        assert abs(rates[0] / (0.5e-300 * LOG2E) - 1.0) <= 1e-15 and rates[-1] == 1.0

    @pytest.mark.parametrize("amplitude", AMPLITUDES)
    def test_adr_breakdown_and_eb_over_n0_are_scale_free(self, amplitude):
        unit = CocktailParams(3.5, 1.0)
        scaled = CocktailParams(3.5 * amplitude, amplitude)
        for s in SNRS[1:]:
            want = adr_breakdown(unit, NoiseModel(2.0 / s))
            got = adr_breakdown(scaled, NoiseModel(2.0 * amplitude**2 / s))
            for g, w in zip((got.r1, got.r2, got.total), (want.r1, want.r2, want.total)):
                assert abs(g - w) <= 4e-15 * w, (s, got, want)
            assert 0.0 <= got.r1 <= 1.0 and 0.0 <= got.r2 <= 1.0
            ebn0 = eb_over_n0(scaled, NoiseModel(2.0 * amplitude**2 / s))
            assert abs(ebn0 / eb_over_n0(unit, NoiseModel(2.0 / s)) - 1.0) <= 4e-15, (s, ebn0)

    @pytest.mark.parametrize("scheme", CONVENTIONAL_SCHEMES)
    def test_scheme_rate_rises_over_every_snr(self, scheme):
        grid = np.exp(np.linspace(math.log(5.6e-309), math.log(sys.float_info.max), 241))
        grid[-1] = sys.float_info.max
        rates = [scheme_rate(scheme, float(rho)) for rho in grid]
        top = {"capacity": math.inf, "bpsk": 1.0, "qpsk": 2.0, "4ask": 2.0, "8psk": 3.0}[scheme]
        assert all(math.isfinite(r) and 0.0 <= r <= top for r in rates)
        assert rates == sorted(rates), scheme


def exact(value: Fraction) -> float:
    """``value`` rounded to a float, inf past the float range."""
    return math.inf if value >= 2**1024 else float(value)


def close(got: float, want: float) -> bool:
    """Within a few roundings of ``want``, or equal where it is inf or subnormal."""
    return got == want or abs(got - want) <= 1e-15 * want or abs(got - want) <= 2e-323


class TestCocktailEnergies:
    # Energies are squares, and ratios of squares to the noise: each reads
    # its exact value rounded, inf where that lies past the float range.
    # Past alpha = 1.34e154, alpha ** 2 would raise OverflowError, and below
    # alpha = 1e-154 an energy is subnormal and keeps few digits.
    @pytest.mark.parametrize(
        "alpha", [1e-300, 1e-160, 1e-150, 1.0, 1e100, 1.34e154, 1.35e154, 1e200, 1e300, 1e308, 1.7e308]
    )
    def test_energy_report_eb_over_n0_and_low_snr_gain(self, alpha):
        params = CocktailParams(alpha, alpha / 3.5)
        a, h = Fraction(params.alpha), Fraction(params.beta) / 2
        e1, e2 = a * a / 2 + h * h / 2, (a - 2 * h) ** 2 / 2 + h * h / 2
        rep = energy_report(params)
        for got, want in ((rep.e1, e1), (rep.e2, e2), (rep.e_total, e1 + e2)):
            assert close(got, exact(want)), (got, want)
        for variance in (1e-323, 1e-300, 1.0, 1e300, sys.float_info.max):
            noise = NoiseModel(variance)
            gain = adr_gain_low_snr(params, noise)
            assert close(gain, exact(e2 / Fraction(variance) * Fraction(LOG2E))), (variance, gain)
            # A subnormal total rate keeps too few digits for its Eb/N0.
            total = adr_breakdown(params, noise).total
            if total >= sys.float_info.min:
                ebn0 = eb_over_n0(params, noise)
                assert close(ebn0, exact(e1 / Fraction(variance) / Fraction(total))), (variance, ebn0)

    # Below the smallest normal float the total rate has lost its digits,
    # or is 0; every stage is then on the series, where Eb/N0 is the
    # exact-amplitude limit ln 2 (a^2 + b^2/4) / (a^2 + (a-b)^2 + b^2/2).
    @pytest.mark.parametrize("ratio", [1.1, 3.5, 8.0])
    @pytest.mark.parametrize("alpha", [1e-158, 1e-160, 1e-162, 1e-200, 1e-300, 1e-310, 1e-320, 1e-322])
    def test_eb_over_n0_where_the_total_is_below_the_normal_floats(self, alpha, ratio):
        params = CocktailParams(alpha, alpha / ratio)
        a, b = Fraction(params.alpha), Fraction(params.beta)
        limit = float(Fraction(math.log(2.0)) * (a * a + b * b / 4) / (a * a + (a - b) ** 2 + b * b / 2))
        checked = 0
        for variance in (5e-323, 1e-310, 1e-300, 1.0, 1e300, sys.float_info.max):
            noise = NoiseModel(variance)
            if adr_breakdown(params, noise).total < sys.float_info.min:
                ebn0 = eb_over_n0(params, noise)
                assert abs(ebn0 / limit - 1.0) <= 2e-15, (variance, ebn0, limit)
                checked += 1
        assert checked >= 3

    def test_input_energy_1e308(self):
        # Input energy 1e308 by construction, and Eb/N0 (1e308 / 1e300) / 2
        # bits at the top of the rate.
        params = CocktailParams.from_ratio(3.5, 1e308)
        assert abs(energy_report(params).e_in / 1e308 - 1.0) <= 4e-16
        assert abs(eb_over_n0(params, NoiseModel(1e300)) / 5e7 - 1.0) <= 4e-16


class TestLowSnrCapacity:
    # snr * log2(e) passes the float range from snr of about 1.246e308 on.
    def test_inf_past_the_float_range_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert low_snr_capacity(sys.float_info.max) == math.inf
            assert low_snr_capacity(1.2e308) == 1.2e308 * LOG2E < math.inf

    def test_capacity_command_prints_the_inf_row(self, capsys):
        code = main(["capacity", "--grid", f"0:{sys.float_info.max!r}:lin:3"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert captured.out.splitlines()[-1] == "low_snr,1.79769313486e+308,inf"
