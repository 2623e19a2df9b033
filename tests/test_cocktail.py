"""Tests for the cocktail-BPSK scheme: mapping, detection, energies, rates."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from cbpsk.cocktail import (
    ALL_PAIRS,
    AdrBreakdown,
    CocktailParams,
    SymbolPair,
    adr_breakdown,
    adr_gain_low_snr,
    detect,
    eb_over_n0,
    encode,
    energy_report,
)
from cbpsk.mi import NoiseModel, awgn_capacity, bpsk_mi
from cbpsk.sweep import SweepSpec

LOG2E = math.log2(math.e)


def random_params(rng):
    beta = float(rng.uniform(0.05, 4.0))
    ratio = float(rng.uniform(1.001, 8.0))
    return CocktailParams(ratio * beta, beta)


def relaxed_params(alpha, beta):
    """Bypass validation for boundary-value tests (e.g. alpha == beta)."""
    p = object.__new__(CocktailParams)
    object.__setattr__(p, "alpha", float(alpha))
    object.__setattr__(p, "beta", float(beta))
    return p


class TestParams:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            CocktailParams(1.0, 1.0)
        with pytest.raises(ValueError):
            CocktailParams(1.0, 2.0)
        with pytest.raises(ValueError):
            CocktailParams(1.0, -0.5)
        with pytest.raises(ValueError):
            CocktailParams(1.0, 0.0)

    def test_case_split_is_not_settable(self):
        # independent equiprobable streams fix the case-I probability at 1/2
        with pytest.raises(TypeError):
            CocktailParams(2.0, 1.0, 0.3)
        with pytest.raises(ValueError, match="eta"):
            CocktailParams.from_ratio(3.5, 1.0, eta=0.3)
        with pytest.raises(TypeError):
            SweepSpec(snr_grid=(1.0,), eta=0.5)

    def test_from_ratio_hits_target_energy(self):
        p = CocktailParams.from_ratio(3.5, 2.0)
        assert p.ratio == pytest.approx(3.5, rel=1e-12)
        assert energy_report(p).e_in == pytest.approx(2.0, rel=1e-12)

    def test_from_ratio_closed_form_half_eta(self):
        e_in = 0.7
        p = CocktailParams.from_ratio(2.5, e_in)
        assert p.beta == pytest.approx(math.sqrt(2.0 * e_in / (2.5**2 + 0.25)), rel=1e-12)

    def test_from_ratio_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            CocktailParams.from_ratio(1.0, 1.0)
        with pytest.raises(ValueError):
            CocktailParams.from_ratio(2.0, 0.0)

    # Each rejection keeps the message it had when the constructor checked
    # the derived amplitudes a second time.
    @pytest.mark.parametrize("ratio,energy,message", [
        (1.0, 1.0, "ratio must be a finite number > 1, got 1.0"),
        (0.5, 1.0, "ratio must be a finite number > 1, got 0.5"),
        (math.nan, 1.0, "ratio must be a finite number > 1, got nan"),
        (True, 1.0, "ratio must be a finite number > 1, got True"),
        (3.5, True, "input_energy must be a finite number > 0, got True"),
        (3.5, 0.0, "input_energy must be a finite number > 0, got 0.0"),
        (3.5, -1.0, "input_energy must be a finite number > 0, got -1.0"),
        # ratio^2 overflows, so beta and alpha round to 0.
        (1e200, 1e300, "amplitudes must satisfy alpha > beta > 0, got alpha=0.0, beta=0.0"),
        (1e160, 5e-324, "amplitudes must satisfy alpha > beta > 0, got alpha=0.0, beta=0.0"),
        # 2 * E_in / (ratio^2 + 1/4) overflows.
        (1.0000001, 1.7e308, "alpha must be a finite number, got inf"),
    ])
    def test_from_ratio_rejection_messages(self, ratio, energy, message):
        with pytest.raises(ValueError) as exc:
            CocktailParams.from_ratio(ratio, energy)
        assert str(exc.value) == message

    def test_from_ratio_takes_eta_as_a_number(self):
        # A complex 0.5 compares equal to 0.5, but is no number by the rule.
        for bad in (0.5 + 0j, "0.5", None, True, 0.3):
            with pytest.raises(ValueError, match="eta"):
                CocktailParams.from_ratio(3.0, 1.0, eta=bad)
        want = CocktailParams.from_ratio(3.0, 1.0)
        assert CocktailParams.from_ratio(3.0, 1.0, eta=np.float64(0.5)) == want

    def test_from_ratio_matches_the_constructor(self):
        rng = np.random.default_rng(11)
        for ratio, energy in zip(rng.uniform(1.001, 9.0, 200).tolist(), (10.0 ** rng.uniform(-9, 9, 200)).tolist()):
            p = CocktailParams.from_ratio(ratio, energy)
            assert type(p.alpha) is float and type(p.beta) is float
            beta = math.sqrt(energy / (0.5 * ratio * ratio + 0.125))
            assert p == CocktailParams(ratio * beta, beta)

    def test_symbol_pair_validation(self):
        with pytest.raises(ValueError):
            SymbolPair(0, 1)
        with pytest.raises(ValueError):
            SymbolPair(1, 2)


class TestEncodeDetect:
    def test_mapping_table(self):
        p = CocktailParams(3.5, 1.0)
        assert encode(SymbolPair(1, 1), p) == 3.5
        assert encode(SymbolPair(-1, -1), p) == -3.5
        assert encode(SymbolPair(-1, 1), p) == -0.5
        assert encode(SymbolPair(1, -1), p) == 0.5

    def test_detect_table_rows(self):
        p = CocktailParams(3.5, 1.0)
        assert detect(3.5, p) == (1, 2.5, 1)
        x1_hat, y2, x2_hat = detect(-0.5, p)
        assert (x1_hat, x2_hat) == (-1, 1)
        assert y2 == pytest.approx(0.5, abs=1e-15)

    def test_detect_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            detect(float("nan"), CocktailParams(2.0, 1.0))

    def test_tie_break_at_zero_is_plus_one(self):
        p = CocktailParams(2.0, 1.0)
        x1_hat, y2, x2_hat = detect(0.0, p)
        assert x1_hat == 1
        # y2 = -beta lands below zero, so the second decision is -1
        assert (y2, x2_hat) == (-1.0, -1)
        assert detect(p.beta, p)[2] == 1  # y2 == 0 resolves to +1

    def test_roundtrip_all_pairs_random_params(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = random_params(rng)
            for pair in ALL_PAIRS:
                x1_hat, _, x2_hat = detect(encode(pair, p), p)
                assert (x1_hat, x2_hat) == (pair.x1, pair.x2)


class TestEnergyReport:
    def test_reference_numbers(self):
        rep = energy_report(CocktailParams(3.5, 1.0))
        assert rep.e_in == pytest.approx(6.25, abs=1e-12)
        assert rep.e1 == pytest.approx(6.25, abs=1e-12)
        assert rep.e2 == pytest.approx(3.25, abs=1e-12)
        assert rep.delta_e == pytest.approx(3.25, abs=1e-12)
        assert rep.e_total == pytest.approx(9.5, abs=1e-12)

    def test_identities_exact_for_random_params(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            rep = energy_report(random_params(rng))
            assert rep.e_in == rep.e1
            assert rep.delta_e == rep.e2
            assert rep.e_total == rep.e1 + rep.e2
            assert rep.e1 > 0 and rep.e2 > 0

    def test_reuse_term_vanishes_as_alpha_meets_beta(self):
        beta = 1.0
        rep = energy_report(CocktailParams(beta + 1e-9, beta))
        # only the disagreement term (beta/2)^2 / 2 survives
        assert rep.e2 == pytest.approx((beta / 2.0) ** 2 / 2.0, abs=1e-8)


class TestAdr:
    def test_saturates_at_two_bits(self):
        out = adr_breakdown(CocktailParams(3.5, 1.0), NoiseModel(1e-6))
        assert out.total == pytest.approx(2.0, abs=1e-3)
        assert out.total == out.r1 + out.r2

    def test_components_bounded_by_one_bit(self):
        rng = np.random.default_rng(3)
        for var in (1e-4, 0.1, 10.0, 1e4):
            out = adr_breakdown(random_params(rng), NoiseModel(var))
            assert 0.0 <= out.r1 <= 1.0
            assert 0.0 <= out.r2 <= 1.0
            assert 0.0 <= out.total <= 2.0

    def test_low_snr_total_tracks_total_energy(self):
        # at E_in/var = 0.01 the sum of the four detections runs at the
        # slope set by the total (input + reused) energy, within 5%
        p = CocktailParams(3.5, 1.0)
        rep = energy_report(p)
        var = rep.e_in / 0.01
        total = adr_breakdown(p, NoiseModel(var)).total
        assert total == pytest.approx(rep.e_total / var * LOG2E, rel=0.05)

    def test_monotone_in_snr(self):
        p = CocktailParams(3.5, 1.0)
        totals = [adr_breakdown(p, NoiseModel(v)).total for v in np.logspace(3, -3, 25)]
        assert all(b >= a - 1e-12 for a, b in zip(totals, totals[1:]))

    def test_stage2_structure_at_equal_amplitudes(self):
        # boundary alpha == beta (relaxed validation): the agreement term of
        # the second stage contributes nothing
        p = relaxed_params(1.0, 1.0)
        noise = NoiseModel(0.5)
        out = adr_breakdown(p, noise)
        expected = 0.5 * bpsk_mi(0.5, noise)
        assert out.r2 == pytest.approx(expected, abs=1e-12)

    def test_gain_formula_arithmetic(self):
        v = adr_gain_low_snr(CocktailParams(3.5, 1.0), NoiseModel(325.0))
        assert v == pytest.approx((3.25 / 325.0) * LOG2E, abs=1e-12)
        assert v == pytest.approx(0.014427, abs=1e-6)

    def test_gain_zero_at_zero_reused_energy(self):
        # boundary delta_e == 0 is only reachable with relaxed validation
        assert adr_gain_low_snr(relaxed_params(0.0, 0.0), NoiseModel(1.0)) == 0.0

    def test_gain_matches_measured_difference_at_low_snr(self):
        p35 = 3.5
        for rho in (0.001, 0.005):
            p = CocktailParams.from_ratio(p35, rho)
            noise = NoiseModel(1.0)
            measured = adr_breakdown(p, noise).total - awgn_capacity(rho)
            assert adr_gain_low_snr(p, noise) == pytest.approx(measured, rel=0.10)

    def test_gain_sign_reversal(self):
        noise = NoiseModel(1.0)
        low = CocktailParams.from_ratio(3.5, 0.01)
        high = CocktailParams.from_ratio(3.5, 10.0)
        assert adr_breakdown(low, noise).total - awgn_capacity(0.01) > 0
        assert adr_breakdown(high, noise).total - awgn_capacity(10.0) < 0


class TestStageNoise:
    def test_half_that_underflows_raises_every_time(self):
        # Each detection stage sees half the total noise power, so a total
        # whose half underflows to 0 is refused where the noise is built.
        for _ in range(2):
            with pytest.raises(ValueError) as exc:
                NoiseModel(5e-324)
            assert str(exc.value) == "noise variance must be a finite number > 4.94066e-324, got 5e-324"

    def test_reused_stage_noise_matches_a_fresh_one(self):
        # Both detection stages take the total noise as given: the kernel
        # applies the half per real dimension itself.
        p = CocktailParams(3.5, 1.0)
        for var in np.geomspace(1e-3, 1e3, 40).tolist() * 2:
            noise = NoiseModel(var)
            want = 0.5 * bpsk_mi(p.alpha, noise) + 0.5 * bpsk_mi(0.5 * p.beta, noise)
            assert adr_breakdown(p, noise).r1 == want

    def test_threads_give_serial_bits(self):
        # Threads share the kernel's cached rules; a short switch interval
        # makes them take turns inside the calls.
        p = CocktailParams.from_ratio(3.5, 0.7)
        variances = np.geomspace(1e-3, 1e3, 60).tolist()

        def work(_=None):
            return [adr_breakdown(p, NoiseModel(v)).total.hex() for v in variances]

        want = work()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(work, range(8), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert sum(g != want for g in got) == 0


class TestEbOverN0:
    def test_generic_definition(self):
        p = CocktailParams(3.5, 1.0)
        noise = NoiseModel(2.0)
        out = adr_breakdown(p, noise)
        assert eb_over_n0(p, noise) == pytest.approx(
            energy_report(p).e_in / noise.variance / out.total, rel=1e-12
        )

    def test_low_snr_limit_for_ratio_3_5(self):
        p = CocktailParams.from_ratio(3.5, 1e-4)
        db = 10.0 * math.log10(eb_over_n0(p, NoiseModel(1.0)))
        rep = energy_report(p)
        closed_db = 10.0 * math.log10(math.log(2.0) * rep.e1 / rep.e_total)
        assert db < -3.3
        assert db == pytest.approx(closed_db, abs=0.01)
        assert closed_db == pytest.approx(-3.41, abs=0.01)

    def test_underflowed_rate_raises(self):
        # zero amplitudes (relaxed validation) give exactly zero rate
        p = relaxed_params(0.0, 0.0)
        with pytest.raises(ZeroDivisionError):
            eb_over_n0(p, NoiseModel(1.0))


class TestBreakdownType:
    def test_total_is_sum(self):
        out = AdrBreakdown(0.25, 0.5, 0.75)
        assert out.total == out.r1 + out.r2


class TestGoldenBits:
    # float.hex values. The energies were captured with the general
    # case-weight arithmetic at eta = 1/2. The rates were re-captured when
    # bpsk_mi took the closed antipodal form, and again when it moved onto
    # the pruned rule every kernel shares; against 50-digit values, r1, r2
    # and the total are within 6.3e-18, 2.1e-19 and 7.8e-18 bits.
    def test_ratio_3_5_at_energy_0_01(self):
        p = CocktailParams.from_ratio(3.5, 0.01)
        rep = energy_report(p)
        out = adr_breakdown(p, NoiseModel(1.0))
        got = {
            "alpha": p.alpha,
            "beta": p.beta,
            "e1": rep.e1,
            "e2": rep.e2,
            "e_total": rep.e_total,
            "r1": out.r1,
            "r2": out.r2,
            "total": out.total,
        }
        assert {k: v.hex() for k, v in got.items()} == {
            "alpha": "0x1.1eb851eb851ecp-3",
            "beta": "0x1.47ae147ae147bp-5",
            "e1": "0x1.47ae147ae147cp-7",
            "e2": "0x1.54c985f06f695p-8",
            "e_total": "0x1.f212d77318fc6p-7",
            "r1": "0x1.cfe276bdfc801p-7",
            "r2": "0x1.e6fa8187d81a8p-8",
            "total": "0x1.61afdbc0f446ap-6",
        }
