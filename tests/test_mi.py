"""Tests for the mutual-information kernels.

Frozen expected values were produced by independent routes before being
pinned here: the entropy closed form with 40-digit mpmath arithmetic, and
the antipodal MI by the Monte Carlo plug-in oracle (10^7 samples, agreeing
to 3 decimals) cross-checked against adaptive-Simpson integration.
"""

import math

import numpy as np
import pytest

from cbpsk.mi import (
    Constellation,
    NoiseModel,
    _hermgauss,
    _mixture_logpdf,
    _symmetry_classes,
    awgn_capacity,
    bpsk_mi,
    constellation_mi,
    gaussian_mixture_entropy,
    gaussian_mixture_entropy_simpson,
    low_snr_capacity,
    noise_entropy,
)

LOG2E = math.log2(math.e)

# 40-digit evaluation of log2(sqrt(2*pi*e)).
H_N_UNIT_VARIANCE = 2.047095585180641

# Antipodal MI at amplitude 1, variance 1; Monte Carlo oracle gave
# 0.48610 +/- 0.00088 (1e7 samples), Simpson integration 0.485944154133.
BPSK_MI_1_1 = 0.4859441541329357


class TestNoiseModel:
    def test_rejects_nonpositive_variance(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                NoiseModel(bad)

    def test_entropy_zero_at_reference_variance(self):
        assert noise_entropy(NoiseModel(1.0 / (2.0 * math.pi * math.e))) == pytest.approx(0.0, abs=1e-12)

    def test_entropy_unit_variance(self):
        assert noise_entropy(NoiseModel(1.0)) == pytest.approx(H_N_UNIT_VARIANCE, abs=1e-12)

    def test_quadrupling_variance_adds_one_bit(self):
        d = noise_entropy(NoiseModel(4.0)) - noise_entropy(NoiseModel(1.0))
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_can_be_negative_for_small_variance(self):
        assert noise_entropy(NoiseModel(1e-6)) < 0


class TestCapacity:
    @pytest.mark.parametrize("rho,expected", [(0.0, 0.0), (1.0, 1.0), (3.0, 2.0)])
    def test_known_points(self, rho, expected):
        assert awgn_capacity(rho) == pytest.approx(expected, abs=1e-12)

    def test_rejects_negative_snr(self):
        with pytest.raises(ValueError):
            awgn_capacity(-0.5)
        with pytest.raises(ValueError):
            low_snr_capacity(-0.5)

    def test_low_snr_values(self):
        assert low_snr_capacity(0.0) == 0.0
        assert low_snr_capacity(0.01) == pytest.approx(0.01442695040888963, abs=1e-15)

    def test_low_snr_within_half_percent_at_rho_001(self):
        rho = 0.01
        rel = abs(awgn_capacity(rho) - low_snr_capacity(rho)) / awgn_capacity(rho)
        assert rel < 0.005


class TestBpskMi:
    def test_zero_amplitude_is_zero(self):
        for var in (0.1, 1.0, 42.0):
            assert bpsk_mi(0.0, NoiseModel(var)) == 0.0

    def test_reference_value(self):
        v = bpsk_mi(1.0, NoiseModel(1.0))
        assert v == pytest.approx(BPSK_MI_1_1, abs=1e-9)
        assert v == pytest.approx(0.486, abs=5e-4)

    def test_saturates_at_one_bit(self):
        assert bpsk_mi(10.0, NoiseModel(1.0)) == pytest.approx(1.0, abs=1e-6)

    def test_rejects_bad_amplitude(self):
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                bpsk_mi(bad, NoiseModel(1.0))

    def test_monotone_in_amplitude(self):
        noise = NoiseModel(1.0)
        amps = np.linspace(0.0, 8.0, 100)
        vals = [bpsk_mi(a, noise) for a in amps]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("c", [0.1, 2.0, 10.0])
    def test_scale_invariance(self, c):
        base = bpsk_mi(1.3, NoiseModel(0.7))
        scaled = bpsk_mi(c * 1.3, NoiseModel(c * c * 0.7))
        assert scaled == pytest.approx(base, abs=1e-9)

    def test_kernel_low_snr_slope_is_half_nat(self):
        # The two-Gaussian mixture kernel carries half the capacity slope:
        # I -> (snr/2) * log2(e) as snr -> 0. The full slope belongs to the
        # scheme-level rates, where the alphabet sees the per-dimension
        # noise share (see test_sweep).
        rho = 1e-3
        ratio = bpsk_mi(math.sqrt(rho), NoiseModel(1.0)) / (rho * LOG2E)
        assert ratio == pytest.approx(0.5, abs=5e-4)

    def test_quadrature_matches_simpson(self):
        # Dual-route self-consistency across easy and awkward separations.
        for snr in (1e-3, 0.05, 0.5, 1.0, 4.0, 8.0, 16.0, 50.0, 400.0):
            a = math.sqrt(snr)
            gh = gaussian_mixture_entropy(np.array([a, -a]), np.array([0.5, 0.5]), 1.0)
            simp = gaussian_mixture_entropy_simpson([a, -a], [0.5, 0.5], 1.0)
            assert abs(gh - simp) < 1e-9, f"snr={snr}: gh={gh!r} simpson={simp!r}"

    def test_capacity_dominance(self):
        for snr in np.logspace(-2, 2, 12):
            v = bpsk_mi(math.sqrt(snr), NoiseModel(1.0))
            assert v <= awgn_capacity(snr) + 1e-9


class TestConstellation:
    def test_validation_errors(self):
        with pytest.raises(ValueError):
            Constellation((1.0,))  # too few points
        with pytest.raises(ValueError):
            Constellation((1.0, 1.0))  # duplicates
        with pytest.raises(ValueError):
            Constellation((1.0, (0.0, 1.0)))  # mixed dimensionality
        with pytest.raises(ValueError):
            Constellation((1.0, -1.0), (0.7, 0.7))  # priors sum != 1
        with pytest.raises(ValueError):
            Constellation((1.0, -1.0), (1.5, -0.5))  # negative prior
        with pytest.raises(ValueError):
            Constellation((1.0, -1.0), (1.0,))  # length mismatch
        with pytest.raises(ValueError):
            Constellation(((1.0, 2.0, 3.0), (0.0, 0.0, 1.0)))  # 3-D points

    def test_factories_have_unit_energy(self):
        for c in (Constellation.bpsk(), Constellation.ask4(), Constellation.qpsk(), Constellation.psk8()):
            assert c.mean_energy() == pytest.approx(1.0, abs=1e-12)

    def test_scaled_energy(self):
        c = Constellation.qpsk().scaled(3.0)
        assert c.mean_energy() == pytest.approx(9.0, abs=1e-10)

    def test_uniform_priors_default(self):
        c = Constellation.psk8()
        assert sum(c.priors) == pytest.approx(1.0, abs=1e-15)
        assert all(p == 0.125 for p in c.priors)


class TestConstellationMi:
    def test_reduces_to_bpsk(self):
        noise = NoiseModel(0.8)
        c = Constellation((1.7, -1.7))
        assert constellation_mi(c, noise) == pytest.approx(bpsk_mi(1.7, noise), abs=1e-10)

    def test_qpsk_is_two_independent_antipodal_channels(self):
        # 2-D tensor quadrature vs two 1-D detections at the same
        # per-dimension SNR: the total noise splits evenly across rails.
        for rho in (1e-3, 0.05, 1.0, 10.0, 100.0):
            var = 1.0 / rho
            q = constellation_mi(Constellation.qpsk(), NoiseModel(var))
            rail = bpsk_mi(math.sqrt(0.5), NoiseModel(var / 2.0))
            assert q == pytest.approx(2.0 * rail, abs=1e-8)

    @pytest.mark.parametrize("rho", [1e-3, 1.0, 10.0, 100.0])
    def test_8psk_half_order_agrees(self, rho):
        # The cross-check behind the 8psk error bounds of the benchmark's
        # reference table: tensor order 96 against the default 192.
        c = Constellation.psk8().scaled(math.sqrt(rho))
        noise = NoiseModel(1.0)
        assert constellation_mi(c, noise, order=96) == pytest.approx(constellation_mi(c, noise), abs=1e-9)

    def test_8psk_reaches_three_bits(self):
        v = constellation_mi(Constellation.psk8().scaled(100.0), NoiseModel(1.0))
        assert v == pytest.approx(3.0, abs=1e-3)

    def test_4ask_reaches_two_bits(self):
        v = constellation_mi(Constellation.ask4().scaled(100.0), NoiseModel(1.0))
        assert v == pytest.approx(2.0, abs=1e-3)

    def test_bounds_on_random_constellations(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            n = int(rng.integers(2, 7))
            pts = tuple(float(x) for x in rng.normal(0, 2, n))
            while len(set(pts)) != len(pts):
                pts = tuple(float(x) for x in rng.normal(0, 2, n))
            w = rng.random(n) + 0.05
            w = w / w.sum()
            # renormalize exactly so the prior-sum invariant holds
            w[-1] = 1.0 - float(w[:-1].sum())
            c = Constellation(pts, tuple(float(x) for x in w))
            v = constellation_mi(c, NoiseModel(0.5))
            assert 0.0 <= v <= math.log2(n)

    def test_capacity_dominance_weighted_energy(self):
        noise = NoiseModel(1.0)
        for c in (Constellation.ask4().scaled(2.0), Constellation.qpsk().scaled(3.0)):
            v = constellation_mi(c, noise)
            assert v <= awgn_capacity(c.mean_energy() / noise.variance) + 1e-9

    def test_zero_prior_point_is_inert(self):
        # a zero-prior point must not disturb the remaining alphabet
        noise = NoiseModel(1.0)
        with_dead_point = Constellation((1.0, -1.0, 5.0), (0.5, 0.5, 0.0))
        assert constellation_mi(with_dead_point, noise) == pytest.approx(
            bpsk_mi(1.0, noise), abs=1e-9
        )


def all_components_entropy_2d(means, priors, var_per_dim, order):
    """Reference 2-D mixture entropy, in bits: every component's expectation
    taken separately on the tensor-product rule centred on its mean, with the
    full (nodes, n, 2) difference array."""
    means = np.asarray(means, dtype=float)
    priors = np.asarray(priors, dtype=float)
    t, w = _hermgauss(order)
    tx, ty = np.meshgrid(t, t, indexing="ij")
    offsets = np.column_stack([tx.ravel(), ty.ravel()]) * (math.sqrt(2.0) * math.sqrt(var_per_dim))
    weights = np.outer(w, w).ravel() / math.pi
    h_nats = 0.0
    for k in range(len(means)):
        if priors[k] == 0.0:
            continue
        lp = _mixture_logpdf(offsets + means[k], means, priors, var_per_dim)
        h_nats -= float(priors[k]) * float(np.dot(weights, lp))
    return h_nats / math.log(2.0)


def _psk8_points():
    return np.array(Constellation.psk8().points)


def _random_set(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 8))
    priors = rng.random(n) + 0.05
    return rng.normal(0.0, 1.0, (n, 2)), priors / priors.sum()


_QAM16 = np.array([(x, y) for x in (-3.0, -1.0, 1.0, 3.0) for y in (-3.0, -1.0, 1.0, 3.0)]) / math.sqrt(10.0)
_PSK8_SKEWED = np.array([0.2, 0.05, 0.2, 0.05, 0.2, 0.05, 0.2, 0.05])

# (means, priors) with unit-order energy, scaled per test to each SNR.
MIXTURES_2D = {
    "qpsk": (np.array(Constellation.qpsk().points), np.full(4, 0.25)),
    "8psk": (_psk8_points(), np.full(8, 0.125)),
    "8psk-shifted": (_psk8_points() + (0.7, -1.3), np.full(8, 0.125)),
    "8psk-nonuniform": (_psk8_points(), _PSK8_SKEWED),
    "qpsk-zero-prior": (
        np.vstack([Constellation.qpsk().points, [(2.0, 0.5)]]),
        np.array([0.25, 0.25, 0.25, 0.25, 0.0]),
    ),
    "8psk-centroid": (np.vstack([_psk8_points(), [(0.0, 0.0)]]), np.array([0.1] * 8 + [0.2])),
    "16qam": (_QAM16, np.full(16, 1.0 / 16.0)),
    "random-1": _random_set(1),
    "random-2": _random_set(2),
    "random-3": _random_set(3),
}


class TestSymmetryClasses:
    @pytest.mark.parametrize("name", sorted(MIXTURES_2D))
    @pytest.mark.parametrize("rho", [1e-3, 1.0, 7.0, 100.0])
    def test_matches_all_components_sum(self, name, rho):
        # Order 96 keeps the reference cheap; the grouping is exact at any
        # order, because it uses only the rule's own symmetry.
        means, priors = MIXTURES_2D[name]
        means = means * math.sqrt(rho)
        got = gaussian_mixture_entropy(means, priors, 0.5, order=96)
        want = all_components_entropy_2d(means, priors, 0.5, order=96)
        assert abs(got - want) <= 1e-12, f"{name} at rho={rho}: {got!r} vs {want!r}"

    @pytest.mark.parametrize(
        "name,classes",
        [
            ("qpsk", 1),
            # Points on an axis and on a diagonal see the rule differently.
            ("8psk", 2),
            ("8psk-shifted", 2),
            ("8psk-nonuniform", 2),
            ("qpsk-zero-prior", 1),
            ("8psk-centroid", 3),
            ("16qam", 3),
        ],
    )
    def test_class_count(self, name, classes):
        means, priors = MIXTURES_2D[name]
        found = _symmetry_classes(means, priors)
        assert len(found) == classes
        assert sum(weight for _, weight in found) == pytest.approx(1.0, abs=1e-12)
        assert all(priors[k] > 0.0 for k, _ in found)

    def test_classes_never_mix_priors(self):
        means, priors = MIXTURES_2D["8psk-nonuniform"]
        for k, weight in _symmetry_classes(means, priors):
            assert weight == pytest.approx(4 * priors[k], abs=1e-15)
        means, priors = MIXTURES_2D["qpsk"]
        assert len(_symmetry_classes(means, np.array([0.4, 0.1, 0.4, 0.1]))) == 2
