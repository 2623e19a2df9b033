"""Tests for the Monte Carlo link simulator and the plug-in MI oracle."""

import math

import numpy as np
import pytest
from scipy.special import erfc

from cbpsk.cocktail import CocktailParams
from cbpsk.linksim import LinkSimReport, SimConfig, mc_bpsk_mi, run_link
from cbpsk.mi import NoiseModel, bpsk_mi


def qfunc(x: float) -> float:
    return 0.5 * erfc(x / math.sqrt(2.0))


def make_config(**kw):
    base = dict(
        params=CocktailParams(3.5, 1.0),
        noise=NoiseModel(1.0),
        n_symbols=100_000,
        seed=2024,
        detection_mode="decision_directed",
    )
    base.update(kw)
    return SimConfig(**base)


class TestConfigValidation:
    def test_bad_symbol_count(self):
        with pytest.raises(ValueError):
            make_config(n_symbols=0)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            make_config(detection_mode="oracle")

    def test_bad_seed(self):
        with pytest.raises(ValueError):
            make_config(seed=-1)


class TestRunLink:
    def test_noise_free_roundtrip(self):
        report = run_link(make_config(noise=NoiseModel(1e-8), n_symbols=10_000))
        assert report.errors_x1 == 0
        assert report.errors_x2 == 0

    def test_case_frequency_concentrates(self):
        n = 1_000_000
        report = run_link(make_config(n_symbols=n, seed=5))
        assert abs(report.case1_count / n - 0.5) < 0.002

    def test_determinism_same_seed(self):
        a = run_link(make_config(seed=99))
        b = run_link(make_config(seed=99))
        assert a == b

    def test_different_seeds_differ(self):
        a = run_link(make_config(seed=1))
        b = run_link(make_config(seed=2))
        assert a != b

    def test_worker_count_does_not_change_result(self):
        cfg = make_config(n_symbols=3_000_000, seed=31)
        assert run_link(cfg, max_workers=1) == run_link(cfg, max_workers=4)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_three_shard_golden_report(self, workers):
        # 2.5e6 symbols: two full 2**20 shards and a partial third
        cfg = make_config(noise=NoiseModel(0.5), n_symbols=2_500_000, seed=9)
        assert run_link(cfg, max_workers=workers) == LinkSimReport(
            n_symbols=2_500_000,
            errors_x1=299328,
            errors_x2=577941,
            case1_count=1250565,
            empirical_mi_x1=0.6456622419779561,
            empirical_mi_x2=0.45779318372270383,
            seed=9,
        )

    def test_report_echoes_inputs(self):
        report = run_link(make_config(seed=77, n_symbols=12_345))
        assert isinstance(report, LinkSimReport)
        assert report.seed == 77
        assert report.n_symbols == 12_345

    def test_ber_decays_with_noise(self):
        n = 200_000
        rates = []
        for var in (4.0, 1.0, 0.25):
            r = run_link(make_config(noise=NoiseModel(var), n_symbols=n, seed=8))
            rates.append((r.errors_x1 / n, r.errors_x2 / n))
        for (a1, a2), (b1, b2) in zip(rates, rates[1:]):
            tol1 = 3.0 * math.sqrt((a1 * (1 - a1) + b1 * (1 - b1)) / n)
            tol2 = 3.0 * math.sqrt((a2 * (1 - a2) + b2 * (1 - b2)) / n)
            assert b1 <= a1 + tol1
            assert b2 <= a2 + tol2

    def test_genie_no_worse_than_decision_directed(self):
        n = 400_000
        for var in (4.0, 1.0, 0.2):
            dd = run_link(make_config(noise=NoiseModel(var), n_symbols=n, seed=6))
            ga = run_link(
                make_config(noise=NoiseModel(var), n_symbols=n, seed=6, detection_mode="genie_aided")
            )
            p = dd.errors_x2 / n
            tol = 3.0 * math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert ga.errors_x2 / n <= p + tol

    def test_genie_stage2_error_rate_matches_gaussian_tails(self):
        p = CocktailParams(3.5, 1.0)
        sigma = 1.0
        n = 500_000
        report = run_link(
            make_config(
                params=p, noise=NoiseModel(sigma**2), n_symbols=n, seed=17, detection_mode="genie_aided"
            )
        )
        expected = 0.5 * qfunc((p.alpha - p.beta) / sigma) + 0.5 * qfunc(p.beta / 2.0 / sigma)
        observed = report.errors_x2 / n
        tol = 3.0 * math.sqrt(expected * (1 - expected) / n)
        assert abs(observed - expected) < tol

    def test_empirical_mi_matches_kernel_in_genie_mode(self):
        p = CocktailParams(3.5, 1.0)
        var = 1.0
        n = 1_000_000
        report = run_link(
            make_config(params=p, noise=NoiseModel(var), n_symbols=n, seed=12, detection_mode="genie_aided")
        )
        kernel = NoiseModel(var)
        expect_1 = 0.5 * bpsk_mi(p.alpha, kernel) + 0.5 * bpsk_mi(p.beta / 2, kernel)
        expect_2 = 0.5 * bpsk_mi(p.alpha - p.beta, kernel) + 0.5 * bpsk_mi(p.beta / 2, kernel)
        assert report.empirical_mi_x1 == pytest.approx(expect_1, abs=0.01)
        assert report.empirical_mi_x2 == pytest.approx(expect_2, abs=0.01)


class TestMcBpskMi:
    def test_requires_enough_samples(self):
        with pytest.raises(ValueError):
            mc_bpsk_mi(1.0, NoiseModel(1.0), 100, seed=0)

    def test_zero_amplitude_estimates_zero(self):
        est, se = mc_bpsk_mi(0.0, NoiseModel(1.0), 200_000, seed=4)
        assert abs(est) <= 3.0 * se

    def test_saturation_estimates_one(self):
        est, se = mc_bpsk_mi(10.0, NoiseModel(1.0), 200_000, seed=4)
        assert abs(est - 1.0) <= 3.0 * se

    def test_agrees_with_quadrature(self):
        est, se = mc_bpsk_mi(1.0, NoiseModel(1.0), 1_000_000, seed=21)
        assert abs(est - bpsk_mi(1.0, NoiseModel(1.0))) <= 3.0 * se

    def test_deterministic(self):
        assert mc_bpsk_mi(1.0, NoiseModel(1.0), 50_000, seed=9) == mc_bpsk_mi(
            1.0, NoiseModel(1.0), 50_000, seed=9
        )

    def test_three_shard_golden_estimate(self):
        # 2.5e6 samples: two full 2**20 shards and a partial third
        assert mc_bpsk_mi(1.0, NoiseModel(1.0), 2_500_000, seed=9) == (
            0.4853096190287869,
            0.0005532412506568794,
        )

    def test_standard_error_shrinks(self):
        _, se_small = mc_bpsk_mi(1.0, NoiseModel(1.0), 20_000, seed=3)
        _, se_big = mc_bpsk_mi(1.0, NoiseModel(1.0), 320_000, seed=3)
        assert se_big < se_small / 3.0
