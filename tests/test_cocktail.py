"""Tests for the cocktail-BPSK scheme: mapping, detection, energies, rates."""

import math

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
        out = adr_breakdown(p, NoiseModel(0.5))
        expected = 0.5 * bpsk_mi(0.5, NoiseModel(0.25))
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
    # float.hex values captured with the general case-weight arithmetic at
    # eta = 1/2; rewriting the fixed 1/2 weights must not move a single ulp.
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
            "r1": "0x1.cfe276bdfc8c0p-7",
            "r2": "0x1.e6fa8187d8400p-8",
            "total": "0x1.61afdbc0f4560p-6",
        }
