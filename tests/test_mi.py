"""Tests for the mutual-information kernels.

Frozen expected values were produced by independent routes before being
pinned here: the entropy closed form and a table of antipodal MI values
with 40-digit mpmath arithmetic, and the antipodal MI at amplitude 1 by the
Monte Carlo plug-in oracle (10^7 samples, agreeing to 3 decimals)
cross-checked against adaptive-Simpson integration.
"""

import copy
import hashlib
import math
import pickle
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from cbpsk import mi
from cbpsk.cocktail import CocktailParams, adr_breakdown
from cbpsk.mi import (
    Constellation,
    NoiseModel,
    _mixture_logpdf,
    _symmetry_classes,
    awgn_capacity,
    bpsk_mi,
    constellation_mi,
    gaussian_mixture_entropy_simpson,
    low_snr_capacity,
    noise_entropy,
)
from cbpsk.sweep import scheme_rate

LOG2E = math.log2(math.e)

# 40-digit evaluation of log2(sqrt(2*pi*e)).
H_N_UNIT_VARIANCE = 2.047095585180641

# Antipodal MI at amplitude 1, variance 1 per real dimension (NoiseModel(2));
# Monte Carlo oracle gave 0.48610 +/- 0.00088 (1e7 samples), Simpson
# integration 0.485944154133.
BPSK_MI_1_1 = 0.4859441541329357

# (amplitude, I) for antipodal signaling at variance 0.5 per real dimension
# (NoiseModel(1)), amplitude sqrt(rho) for 25 log-spaced rho in 1e-5..1:
# 40-digit mpmath quadrature of
# I = -E_n[log1p(expm1(u) / 2)] / ln 2, u = -2A(A + n) / v, at the float
# amplitudes listed, checked against a 60-digit run on other breakpoints.
BPSK_MI_40_DIGITS = (
    (0.0031622776601683794, "0.00001442680614130909104679765314067485379443"),
    (0.004019450333615123, "0.00002330777708891273323148448403840274339272"),
    (0.00510896977450693, "0.00003765562584757263708516422309987478404384"),
    (0.006493816315762113, "0.00006083538005501090480598491879503081572846"),
    (0.008254041852680182, "0.0000982829731536880999047500100813416732662"),
    (0.010491397291363102, "0.0001587791261550925523957383652964961816366"),
    (0.01333521432163324, "0.0002565058774071832897761078097357924125668"),
    (0.01694988151390346, "0.0004143650620932356086056535142890803370111"),
    (0.021544346900318846, "0.0006693290921221075316138385503646250438319"),
    (0.027384196342643614, "0.001081058179610740321167581288564770562278"),
    (0.03480700588428411, "0.001745750768656589642984867859643762879867"),
    (0.04424185553847917, "0.002818334402105940015537194292002597339019"),
    (0.05623413251903491, "0.004547835702508093317344244342663797876335"),
    (0.07147705767941857, "0.007333282055638685521622883478218432778641"),
    (0.09085175756516867, "0.01181083570566772205651776324617996928938"),
    (0.11547819846894582, "0.01898651340726992785037137743174836196322"),
    (0.146779926762207, "0.03043056536501154943109389947892379467595"),
    (0.18656635785769118, "0.04854294465923118967370648114140059448654"),
    (0.23713737056616555, "0.07686908902519022908298782153625360054835"),
    (0.30141625298773905, "0.120361649502118436685869256612707959149"),
    (0.38311868495572887, "0.1853028487162961356819410402894409360773"),
    (0.4869675251658631, "0.2782983679476339245879652149189479876124"),
    (0.6189658188912603, "0.4034472187330794293274520567365310451137"),
    (0.7867438076599402, "0.5570551867449502413421911205207774662329"),
    (1.0, "0.721451590790388129327597271228883369939"),
)

# Linear SNRs at which the antipodal entropies are checked against Simpson.
SIMPSON_SNRS = (1e-3, 0.05, 0.5, 1.0, 4.0, 8.0, 16.0, 50.0, 400.0)


@pytest.fixture(scope="module")
def simpson_entropies():
    """Adaptive-Simpson entropy, in bits, of the {+A, -A} mixture at unit
    variance and A = sqrt(snr), for each snr in SIMPSON_SNRS."""
    return {
        snr: gaussian_mixture_entropy_simpson([math.sqrt(snr), -math.sqrt(snr)], [0.5, 0.5], 1.0)
        for snr in SIMPSON_SNRS
    }


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

    def test_matches_40_digit_values(self):
        # log2(1 + rho) would round 1 + rho first: 1.1e-13 relative error at
        # rho = 1e-3 and 0.11 near 1e-15. log1p(rho) / ln 2 measured 1.9e-16
        # at worst over these points.
        import mpmath

        with mpmath.workdps(40):
            for rho in np.geomspace(1e-15, 70.0, 401).tolist():
                want = mpmath.log1p(mpmath.mpf(rho)) / mpmath.log(2)
                assert abs(awgn_capacity(rho) / want - 1) <= 2.2e-16, rho

    def test_low_snr_within_half_percent_at_rho_001(self):
        rho = 0.01
        rel = abs(awgn_capacity(rho) - low_snr_capacity(rho)) / awgn_capacity(rho)
        assert rel < 0.005


class TestBpskMi:
    def test_zero_amplitude_is_zero(self):
        for var in (0.1, 1.0, 42.0):
            assert bpsk_mi(0.0, NoiseModel(var)) == 0.0

    def test_reference_value(self):
        v = bpsk_mi(1.0, NoiseModel(2.0))
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
        # Half a nat per unit of the per-dimension SNR s = A^2 / (v / 2),
        # v the total noise power: I -> (s/2) * log2(e) as s -> 0. As s is
        # 2 rho for rho = A^2 / v, bpsk_mi(sqrt(rho), NoiseModel(1)) carries
        # the full capacity slope rho * log2(e), as the scheme-level rates do
        # (see test_sweep).
        s = 1e-3
        ratio = bpsk_mi(math.sqrt(s / 2.0), NoiseModel(1.0)) / (s * LOG2E)
        assert ratio == pytest.approx(0.5, abs=5e-4)

    def test_matches_40_digit_values(self):
        noise = NoiseModel(1.0)
        worst = max(abs(Fraction(bpsk_mi(a, noise)) - Fraction(want)) for a, want in BPSK_MI_40_DIGITS)
        assert worst <= Fraction(5e-16), f"largest error {float(worst):.3g} bits"

    def test_quadrature_matches_simpson(self, simpson_entropies):
        # Dual-route self-consistency across easy and awkward separations:
        # the general rate kernel against H(Y) - H(N) by adaptive Simpson,
        # both at variance 1 per real dimension.
        noise = NoiseModel(2.0)
        for snr, h_y in simpson_entropies.items():
            a = math.sqrt(snr)
            gh = constellation_mi(Constellation((a, -a)), noise)
            want = h_y - noise_entropy(NoiseModel(1.0))
            assert abs(gh - want) < 1e-9, f"snr={snr}: gh={gh!r} simpson={want!r}"

    def test_capacity_dominance(self):
        for snr in np.logspace(-2, 2, 12):
            v = bpsk_mi(math.sqrt(snr), NoiseModel(1.0))
            assert v <= awgn_capacity(snr) + 1e-9

    def test_matches_low_snr_series(self):
        # I = (s/2 - s^2/4 + s^3/6 - ...) / ln 2 with s = A^2 / v, v the
        # variance per real dimension; over this range the dropped terms are
        # below 1e-12 relative, so the bound measures the kernel, and
        # H(Y) - H(N) would miss it by 4e-4 at 1e-12.
        worst = 0.0
        for s in np.logspace(-12, -4, 41):
            series = (s / 2 - s**2 / 4 + s**3 / 6) / math.log(2.0)
            worst = max(worst, abs(bpsk_mi(math.sqrt(s), NoiseModel(2.0)) / series - 1.0))
        assert worst <= 1e-9, f"largest relative error {worst:.3g}"

    def test_matches_series_of_exact_snr_below_1e_8(self):
        # Reference: the series at the exact rational square of the float
        # amplitude; its dropped terms are below 5e-25 relative here. The
        # quadrature misses it by 1.4e-8 at s = 1e-16.
        ln2 = Fraction(math.log(2.0))
        for s in np.logspace(-300, -8, 147):
            a = math.sqrt(s)
            s_exact = Fraction(a) ** 2
            want = (s_exact / 2 - s_exact**2 / 4 + s_exact**3 / 6) / ln2
            assert abs(Fraction(bpsk_mi(a, NoiseModel(2.0))) / want - 1) <= Fraction(1e-12), f"s={s!r}"
        # I = 5e-601 underflows to zero.
        assert bpsk_mi(1e-300, NoiseModel(2.0)) == 0.0

    @pytest.mark.parametrize("var", [0.5, 1.0])
    def test_matches_constellation_mi(self, var):
        # The general rate kernel is an independent route to the same rate.
        noise = NoiseModel(var)
        for a in np.logspace(-3, 2, 61):
            a = float(a)
            want = constellation_mi(Constellation((a, -a)), noise)
            assert abs(bpsk_mi(a, noise) - want) <= 5e-16, f"A={a!r}"

    def test_matches_simpson_route(self, simpson_entropies):
        noise = NoiseModel(2.0)
        for snr, h_y in simpson_entropies.items():
            a = math.sqrt(snr)
            want = h_y - noise_entropy(NoiseModel(1.0))
            assert abs(bpsk_mi(a, noise) - want) < 1e-9, f"snr={snr}"

    @pytest.mark.parametrize(
        "amplitude,var", [(1e150, 1e-150), (1e300, 1e-10), (1.0, 1e-300), (1e-300, 1.0), (1.0, 1e300)]
    )
    def test_extreme_scales_stay_in_range_without_warnings(self, amplitude, var):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = bpsk_mi(amplitude, NoiseModel(var))
        assert 0.0 <= v <= 1.0

    @pytest.mark.parametrize(
        "call,order",
        [
            (lambda order: bpsk_mi(0.7, NoiseModel(0.5), order), 256),
            (lambda order: constellation_mi(Constellation.qpsk(), NoiseModel(0.5), order), 100),
            (lambda order: constellation_mi(Constellation.ask4(), NoiseModel(0.5), order), 64),
        ],
    )
    def test_order_check_does_not_depend_on_the_cache(self, call, order):
        # The rule caches take 256.0 for the key 256, so the integer call
        # goes first: a float order must still be refused once its rule is
        # cached, and a numpy integer still taken, to the same bits.
        want = call(order)
        for bad in (float(order), np.float64(order)):
            with pytest.raises(ValueError, match="order"):
                call(bad)
        assert call(np.int64(order)).hex() == want.hex()

    def test_order_is_checked_at_amplitude_zero(self):
        # Amplitude 0 needs no rule, but its order follows the same rule.
        assert bpsk_mi(0.0, NoiseModel(0.5), 256) == 0.0
        with pytest.raises(ValueError, match="order"):
            bpsk_mi(0.0, NoiseModel(0.5), 256.0)

    def test_bypasses_the_mixture_kernel(self, monkeypatch):
        # bpsk_mi takes the closed antipodal form, so neither it nor the
        # cocktail rates that call it pay for the general kernel.
        def unreachable(*args, **kwargs):
            raise AssertionError("general rate kernel called")

        monkeypatch.setattr(mi, "_rate_nats", unreachable)
        monkeypatch.setattr(mi, "_symmetry_classes", unreachable)
        assert 0.0 < bpsk_mi(0.3, NoiseModel(0.5)) < 1.0
        assert adr_breakdown(CocktailParams.from_ratio(3.5, 0.01), NoiseModel(1.0)).total > 0.0


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

    def test_scaled_past_the_float_range_names_points(self):
        with pytest.raises(ValueError, match="points"):
            Constellation((1e300, -1.0)).scaled(1e300)

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

    @pytest.mark.parametrize("priors", [np.array([0.5, 0.25, 0.25]), np.array([2, 1, 1]) / 4])
    def test_array_priors_equal_tuple_priors(self, priors):
        want = Constellation((1.0, -1.0, 3.0), (0.5, 0.25, 0.25))
        got = Constellation((1.0, -1.0, 3.0), priors)
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
        assert type(got.priors) is tuple and all(type(p) is float for p in got.priors)

    @pytest.mark.parametrize("factory", ["bpsk", "ask4", "qpsk", "psk8"])
    def test_array_points_equal_tuple_points(self, factory):
        want = getattr(Constellation, factory)()
        # An array, a list, and a tuple of numpy scalars or numpy rows.
        for points in (np.array(want.points), list(want.points), tuple(np.array(want.points))):
            got = Constellation(points, want.priors)
            assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
        # A 1-D alphabet may also come as an (n, 1) column.
        if want.dimension == 1:
            assert Constellation(np.array(want.points)[:, None]) == want

    def test_as_array_is_read_only(self):
        qpsk = Constellation.qpsk()
        copies = (copy.deepcopy(qpsk), pickle.loads(pickle.dumps(qpsk)))
        assert all(c == qpsk for c in copies)
        for c in (Constellation.bpsk(), qpsk.scaled(2.0), *copies):
            a = c.as_array()
            assert a.shape == (len(c.points), c.dimension) and not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 9.0
        # The caller's array stays writable and is not shared.
        points = np.array([1.0, -1.0])
        c = Constellation(points)
        points[0] = 5.0
        assert points.flags.writeable and c.points == (1.0, -1.0)


class TestConstellationMi:
    def test_reduces_to_bpsk(self):
        noise = NoiseModel(0.8)
        c = Constellation((1.7, -1.7))
        assert constellation_mi(c, noise) == pytest.approx(bpsk_mi(1.7, noise), abs=1e-10)

    @pytest.mark.parametrize("points", [
        ((0.0, 0.0), (1.0, 1.0)),
        ((3.0, 1.0), (1.0, 1.0)),
        (0.0, 1.0),
    ])
    def test_one_live_point_carries_nothing(self, points):
        # With one point of prior > 0 the 2-D symmetry search has no point
        # off the centroid to map, so _plane_isometries finds no candidate;
        # the 1-D alphabet is the same case on the line. Off-centre or not,
        # the rate is exactly 0 at any noise, without a warning.
        c = Constellation(points, (1.0, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rates = [constellation_mi(c, NoiseModel(v)) for v in (1e-300, 1.0, 1e300, sys.float_info.max)]
        assert [r.hex() for r in rates] == [(0.0).hex()] * 4

    def test_qpsk_is_two_independent_antipodal_channels(self):
        # qpsk is an axis product, so it runs as its rail {+-sqrt(1/2)} with
        # the weight doubled, and meets two 1-D detections at the same
        # NoiseModel (each real dimension carries half its power in both)
        # to rounding: 6.7e-16 bits at most when measured, three ulps of a
        # rate near 2. On the order-192 tensor rule it erred by up to
        # 6.2e-9 bits, near rho = 12.8; the dense grid over 3..30 covers that
        # peak.
        for rho in (1e-3, 0.05, 1.0, 100.0, *np.geomspace(3.0, 30.0, 121)):
            var = 1.0 / rho
            q = constellation_mi(Constellation.qpsk(), NoiseModel(var))
            rail = bpsk_mi(math.sqrt(0.5), NoiseModel(var))
            assert abs(q - 2.0 * rail) <= 1e-15, f"rho={rho}"

    @pytest.mark.parametrize("rho", [7.9, 12.9, 50.0])
    def test_qpsk_within_twice_the_1d_rule_error(self, rho):
        # Against 2 x the 30-digit rate of the rail: -7.17e-10 bits at
        # rho = 12.9, the worst of the 60-point grid 1e-3..1e2 and of 121
        # points over 3..30, twice the 1-D rule's 3.6e-10. The 2-D tensor
        # rule erred by 5.5e-9 there.
        a = Constellation.qpsk().scaled(math.sqrt(rho)).points[0][0]
        want = 2.0 * mpmath_rate((a, -a), (0.5, 0.5), 0.5)
        assert abs(scheme_rate("qpsk", rho) - want) <= 7.2e-10

    def test_8psk_within_stated_bound_of_order_256(self):
        for rho in np.geomspace(1e-3, 1e2, 31):
            c = Constellation.psk8().scaled(math.sqrt(rho))
            noise = NoiseModel(1.0)
            assert abs(constellation_mi(c, noise) - constellation_mi(c, noise, order=256)) <= 2.5e-12, f"rho={rho}"

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


def trapezoid_rate(points, var_per_dim, h):
    """I(X; Y), in bits, of equiprobable 2-D ``points`` over isotropic noise
    of variance ``var_per_dim`` per dimension, by the trapezoid rule on the
    Gaussian weight: nodes k h on both axes, weights h^2 e^-|t|^2 / pi, kept
    where |t|^2 <= 72. Every component is evaluated, and no symmetry is
    used. The rule converges like exp(-2 pi d / h) on an integrand analytic
    within d of the real axes, unlike the Hermite rule of the library, and
    the weight it drops is below e^-72."""
    points = np.asarray(points, dtype=float)
    n = len(points)
    k = np.arange(-math.floor(math.sqrt(72.0) / h), math.floor(math.sqrt(72.0) / h) + 1) * h
    tx, ty = np.meshgrid(k, k, indexing="ij")
    keep = tx * tx + ty * ty <= 72.0
    t = np.stack([tx[keep], ty[keep]])
    w = h * h * np.exp(-np.sum(t * t, axis=0)) / math.pi
    rate = 0.0
    for m in points:
        delta = m - points
        u = -math.sqrt(2.0 / var_per_dim) * (delta @ t) - np.sum(delta * delta, axis=1)[:, None] / (2.0 * var_per_dim)
        c = u.max(axis=0)
        u -= c
        np.exp(u, out=u)
        # log sum_j exp(u_j) / n, shifted by the largest u_j
        rate -= float(w @ (np.log(u.sum(axis=0) / n) + c)) / n
    return rate / math.log(2.0)


def _turned(points, angle):
    """``points`` (n, 2) turned about the origin by ``angle``."""
    c, s = math.cos(angle), math.sin(angle)
    return np.asarray(points, dtype=float) @ np.array([[c, s], [-s, c]])


# The SNRs of the 8-PSK oracle: 7.91 and 9.62 are the points of the
# figure's 60-point grid 1e-3..1e2 where 8-PSK errs most.
PSK8_ORACLE_RHOS = (1.0, 3.0, *np.geomspace(1e-3, 1e2, 60)[[46, 47]].tolist(), 12.8, 30.0)


@pytest.fixture(scope="module")
def psk8_oracle():
    """{rho: (8-PSK at h = 0.06, at h = 0.07, 8-PSK turned by 0.3 rad at
    h = 0.06)}, by :func:`trapezoid_rate` at total noise power 1/rho."""
    psk8 = Constellation.psk8().points
    turned = _turned(psk8, 0.3)
    return {
        rho: tuple(trapezoid_rate(pts, 0.5 / rho, h) for pts, h in ((psk8, 0.06), (psk8, 0.07), (turned, 0.06)))
        for rho in PSK8_ORACLE_RHOS
    }


class TestPsk8Oracle:
    def test_oracle_converged(self, psk8_oracle):
        # The steps agree to 8.9e-16 bits, and the exact rate does not
        # change when the alphabet turns; the oracle holds both to 1e-14.
        for rho, (fine, coarse, turned) in psk8_oracle.items():
            assert abs(fine - coarse) <= 1e-14 and abs(turned - fine) <= 1e-14, f"rho={rho}"

    @pytest.mark.parametrize("angle", [0.0, 0.3])
    def test_within_2e_12_bits(self, psk8_oracle, angle):
        # One class for all eight points: 8-PSK sums the axis point's term,
        # and the turned 8-PSK, whose stabilizer is the identity, one term
        # on the whole rule. Measured errors in bits, at the rho above:
        #   8-PSK             0, -2.0e-15, -2.0e-12, -1.5e-12, -3.3e-13, -2.7e-15
        #   turned by 0.3     0, -1.4e-14, -4.6e-13, -1.5e-13, +1.4e-13, +7.1e-13
        # With the axis and diagonal points as two classes, 8-PSK erred by
        # -1.8e-12 at rho 7.91 and -1.4e-13 at 9.62.
        c = Constellation(_turned(Constellation.psk8().points, angle))
        for rho, (want, _, turned) in psk8_oracle.items():
            got = constellation_mi(c, NoiseModel(1.0 / rho))
            assert abs(got - (turned if angle else want)) <= 2e-12, f"rho={rho}: {got!r}"

    def test_turned_within_1e_10_bits_above_rho_15(self):
        # Above rho 15 the turned 8-PSK meets the tensor rule's error in
        # full: -7.38e-11 and +7.07e-11 bits at these two points of the
        # figure's grid, where the oracle at h = 0.05 agrees with h = 0.06
        # to 9e-16 bits.
        turned = _turned(Constellation.psk8().points, 0.3)
        c = Constellation(turned)
        for rho in np.geomspace(1e-3, 1e2, 60)[[53, 56]].tolist():
            got = constellation_mi(c, NoiseModel(1.0 / rho))
            want = trapezoid_rate(turned, 0.5 / rho, 0.06)
            assert abs(got - want) <= 1e-10, f"rho={rho}: {got!r} vs {want!r}"


def mpmath_rate(points, priors, var):
    """30-digit I(X; Y), in bits, of a 1-D alphabet over real AWGN of
    variance ``var``: -sum_k p_k E[log sum_j p_j p(y | x_j) / p(y | x_k)]
    by tanh-sinh quadrature, with the priors normalised to sum to 1 (the
    floats (1/3, 1/3, 1/3) alone would move the rate by 8e-9 relative at
    rho = 1e-8). The window of 12 standard deviations drops a tail far below
    the precision kept."""
    import mpmath

    with mpmath.workdps(30):
        xs = [mpmath.mpf(x) for x in points]
        ps = [mpmath.mpf(p) for p in priors]
        ps = [p / mpmath.fsum(ps) for p in ps]
        two_v = 2 * mpmath.mpf(var)
        sd = mpmath.sqrt(mpmath.mpf(var))
        total = 0
        for xk, pk in zip(xs, ps):
            def integrand(z, xk=xk):
                n = sd * z
                mix = mpmath.fsum(pj * mpmath.exp(-(xk - xj) * (2 * n + xk - xj) / two_v) for xj, pj in zip(xs, ps))
                return mpmath.exp(-z * z / 2) * mpmath.log(mix)
            total -= pk * mpmath.quad(integrand, [-12, 0, 12])
        return float(total / (mpmath.sqrt(2 * mpmath.pi) * mpmath.log(2)))


def _cocktail_4pam(rho):
    p = CocktailParams.from_ratio(3.5, rho)
    return Constellation((p.alpha, -p.alpha, 0.5 * p.beta, -0.5 * p.beta))


class TestLowSnrRates:
    # The rate kernel forms I(X; Y) with no entropy difference, so it keeps
    # its relative accuracy as the rate falls: measured 1.1e-12 relative at
    # worst (qpsk at rho = 1e-8). An H(Y) - H(N) route misses these
    # references by 1.6e-11..2.5e-9 at rho 1e-6..1e-8 and by 1.9e-13..1.6e-12
    # at 1e-4, so the bound at 1e-4 is set below that.
    @pytest.mark.parametrize("rho,bound", [(1e-8, 5e-12), (1e-6, 5e-12), (1e-4, 1e-13)])
    @pytest.mark.parametrize("alphabet", ["bpsk", "4ask", "qpsk", "cocktail-4pam"])
    def test_matches_30_digit_values(self, alphabet, rho, bound):
        if alphabet == "cocktail-4pam":
            c = _cocktail_4pam(rho)
            got = constellation_mi(c, NoiseModel(1.0))
            want = mpmath_rate(c.points, c.priors, 0.5)
        elif alphabet == "qpsk":
            # Two antipodal rails, each at half the total noise power.
            a = Constellation.qpsk().scaled(math.sqrt(rho)).points[0][0]
            got = scheme_rate("qpsk", rho)
            want = 2.0 * mpmath_rate((a, -a), (0.5, 0.5), 0.5)
        else:
            c = (Constellation.bpsk() if alphabet == "bpsk" else Constellation.ask4()).scaled(math.sqrt(rho))
            got = scheme_rate(alphabet, rho)
            want = mpmath_rate(c.points, c.priors, 0.5)
        assert abs(got / want - 1.0) <= bound, f"{got!r} vs {want!r}"

    @pytest.mark.parametrize("rho", [1e-8, 1e-6])
    def test_non_uniform_priors(self, rho):
        # No symmetry and a second shift buffer; 5e-13 relative when measured.
        points = tuple(x * math.sqrt(rho) for x in (1.0, -1.0, 0.3))
        priors = (0.7, 0.2, 0.1)
        got = constellation_mi(Constellation(points, priors), NoiseModel(1.0))
        want = mpmath_rate(points, priors, 0.5)
        assert abs(got / want - 1.0) <= 5e-12, f"{got!r} vs {want!r}"

    def test_bpsk_scheme_matches_bpsk_mi(self):
        # scheme_rate("bpsk") runs the general kernel, bpsk_mi its closed
        # two-point form: 5.5e-13 relative apart at worst when measured.
        worst = 0.0
        for rho in np.geomspace(1e-8, 1e2, 61).tolist():
            want = bpsk_mi(math.sqrt(rho), NoiseModel(1.0))
            worst = max(worst, abs(scheme_rate("bpsk", rho) / want - 1.0))
        assert worst <= 2e-12, f"largest relative difference {worst:.3g}"


def _spy_kernel(monkeypatch):
    """The orders of every _rate_nats call from here on."""
    orders = []
    rate_nats = mi._rate_nats

    def spy(plan, var, order):
        orders.append(order)
        return rate_nats(plan, var, order)

    monkeypatch.setattr(mi, "_rate_nats", spy)
    return orders


class TestLowSnrSeries:
    # A centrally symmetric alphabet takes (tr S / 2 - tr S^2 / 4 +
    # tr S^3 / 6) / ln 2 at tr S <= 1e-8, S = C / v. The unit-energy
    # alphabets of scheme_rate have C = 1 in 1-D and C = I / 2 in 2-D, at
    # v = 1 / (2 rho): tr S = 2 rho, and tr S^k = 2 rho^k in 2-D.
    @pytest.mark.parametrize("rho", [1e-12, 1e-16, 1e-20, 1e-300])
    @pytest.mark.parametrize("scheme", ["bpsk", "4ask", "qpsk", "8psk"])
    def test_scheme_rate_is_the_series(self, monkeypatch, scheme, rho):
        orders = _spy_kernel(monkeypatch)
        if scheme in ("bpsk", "4ask"):
            s = 2.0 * rho
            want = (s / 2 - s * s / 4 + s**3 / 6) / math.log(2.0)
        else:
            want = (rho - rho * rho / 2 + rho**3 / 3) / math.log(2.0)
        got = scheme_rate(scheme, rho)
        assert abs(got / want - 1.0) <= 1e-15, f"{got!r} vs {want!r}"
        assert orders == []

    @pytest.mark.parametrize("var", [1.0, 3.7])
    def test_antipodal_series_is_bpsk_mi(self, var):
        noise = NoiseModel(2.0 * var)
        for a in np.geomspace(1e-150, 1e-4, 60).tolist():
            want = bpsk_mi(a, noise)
            assert abs(constellation_mi(Constellation((a, -a)), noise) - want) <= 4e-16 * want, f"A={a!r}"

    def test_threshold_is_tr_s_1e_8(self, monkeypatch):
        # No rate above tr S = 1e-8 leaves the kernel, so none moves there.
        orders = _spy_kernel(monkeypatch)
        for c in (Constellation.bpsk(), Constellation.qpsk(), Constellation(_QAM16)):
            trace = c._plan.series[0] / c._plan.factor**2
            constellation_mi(c, NoiseModel(2.0 * trace / (mi._SERIES_MAX_S * (1.0 + 1e-9))))
            assert orders == [8]
            constellation_mi(c, NoiseModel(2.0 * trace / (mi._SERIES_MAX_S * (1.0 - 1e-9))))
            assert orders == [8]
            orders.clear()

    def test_asymmetric_alphabet_keeps_the_kernel(self, monkeypatch):
        # Zero mean, but x -> -x does not map it onto itself: its rate
        # departs from the series at (tr S)^3 relative, so it is not taken.
        orders = _spy_kernel(monkeypatch)
        c = Constellation((-1.0, 0.0, 2.0), (0.4, 0.4, 0.2))
        assert c._plan.series is None
        assert constellation_mi(c, NoiseModel(1e12)) > 0.0
        assert orders == [8]

    def test_zero_prior_points_do_not_break_the_symmetry(self):
        c = Constellation((1.0, -1.0, 5.0), (0.5, 0.5, 0.0))
        plan = c._plan
        assert tuple(t / plan.factor ** (2 * k) for k, t in enumerate(plan.series, 1)) == (1.0, 1.0, 1.0)
        want = bpsk_mi(1.0, NoiseModel(1e12))
        assert abs(constellation_mi(c, NoiseModel(1e12)) - want) <= 4e-16 * want


class TestOrderLadder:
    # Unit-energy alphabets, each evaluated at total noise power 1/rho.
    ALPHABETS = {
        "bpsk": Constellation.bpsk,
        "4ask": Constellation.ask4,
        "cocktail-4pam": lambda: _cocktail_4pam(1.0),
        "qpsk": Constellation.qpsk,
        "8psk": Constellation.psk8,
        "16qam": lambda: Constellation(_QAM16),
    }

    @pytest.mark.parametrize("name", sorted(ALPHABETS))
    def test_default_order_is_within_5e_16_bits_of_the_cap(self, name):
        # The largest difference measured was 3.3e-16 bits (qpsk near rho
        # 0.33, 8psk near 0.39). qpsk and 16qam run as their 1-D factors,
        # so their cap is the 1-D one.
        c = self.ALPHABETS[name]()
        cap = mi._DEFAULT_ORDER[c._plan.dimension]
        worst = 0.0
        for rho in np.geomspace(1e-8, 1e4, 241).tolist():
            noise = NoiseModel(1.0 / rho)
            worst = max(worst, abs(constellation_mi(c, noise) - constellation_mi(c, noise, order=cap)))
        assert worst <= 5e-16, f"largest difference {worst:.3g} bits"

    def test_picks_the_first_order_whose_limit_covers_s(self, monkeypatch):
        orders = _spy_kernel(monkeypatch)
        # bpsk and qpsk turned by pi/4 have |m_k - m_j|^2 = 4 at most, so
        # s = 4 / v with v = variance / 2 per dimension. qpsk runs as its
        # rail {+-sqrt(1/2)}, so its s is 2 / v, on the 1-D ladder.
        turned = Constellation(((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)))
        for c, widest, dimension in ((Constellation.bpsk(), 4.0, 1), (turned, 4.0, 2), (Constellation.qpsk(), 2.0, 1)):
            plan = c._plan
            assert plan.widest / plan.factor**2 == pytest.approx(widest, rel=1e-15) and plan.dimension == dimension
            ladder = mi._LADDER[dimension]
            for i, limit in enumerate(mi._LADDER_LIMITS):
                for s, want in ((limit * (1.0 - 1e-9), ladder[i]), (limit * (1.0 + 1e-9), ladder[i + 1])):
                    orders.clear()
                    constellation_mi(c, NoiseModel(2.0 * widest / s))
                    assert orders == [want], f"s={s}"
            orders.clear()
            constellation_mi(c, NoiseModel(1e-300))
            assert orders == [mi._DEFAULT_ORDER[dimension]]
            # An explicit order is taken as given.
            orders.clear()
            constellation_mi(c, NoiseModel(1e6), order=200)
            assert orders == [200]

    @pytest.mark.parametrize("decade", [-7, -6, -5, -4, -3])
    @pytest.mark.parametrize("alphabet", ["bpsk", "qpsk"])
    def test_low_snr_decades_against_30_digit_values(self, alphabet, decade):
        # The low orders the ladder picks here keep the 1.1e-12 relative
        # bound of the module docstring: the worst measured over 8 points a
        # decade was 1.5e-13 (bpsk) and 3.1e-13 (qpsk) at 1e-7..1e-6, against
        # 1.1e-13 and 1.2e-13 at the fixed orders.
        for rho in (10.0 ** (decade + i / 3) for i in range(3)):
            if alphabet == "qpsk":
                a = Constellation.qpsk().scaled(math.sqrt(rho)).points[0][0]
                want = 2.0 * mpmath_rate((a, -a), (0.5, 0.5), 0.5)
            else:
                want = mpmath_rate(Constellation.bpsk().scaled(math.sqrt(rho)).points, (0.5, 0.5), 0.5)
            got = scheme_rate(alphabet, rho)
            assert abs(got / want - 1.0) <= 1.1e-12, f"rho={rho}: {got!r} vs {want!r}"


def unpruned_rule(order, d):
    """The full order**d tensor-product rule, with every node the library's
    pruned rule drops: nodes as a (d, order**d) array, weights summing to 1."""
    t, w = np.polynomial.hermite.hermgauss(order)
    nodes = np.stack([axis.ravel() for axis in np.meshgrid(*[t] * d, indexing="ij")])
    return nodes, reduce(np.multiply.outer, [w] * d).ravel() / math.pi ** (d / 2)


def all_components_rate(means, priors, var_per_dim, order, term_weights=None):
    """Reference rate I(X; Y) in d in {1, 2} dimensions, in bits: every
    component's expectation of log p(y | m_k) - log p(y) taken separately on
    the tensor-product rule centred on its mean, with the full (nodes, n, d)
    difference array: the direct loop, kept as the reference for the
    library's affine, symmetry-class kernel in both dimensions. Component
    k's term is taken in coordinates centred on m_k, which leaves it
    unchanged: forming y = m_k + n far from the origin would round n to the
    magnitude of m_k (1e-12 bits lost for 8-PSK at 1e4 from the origin).

    Term k is weighted by ``term_weights[k]``, by default its prior; a
    weight of 0 skips the term."""
    means = np.asarray(means, dtype=float)
    means = means.reshape(len(means), -1)
    priors = np.asarray(priors, dtype=float)
    d = means.shape[1]
    nodes, weights = unpruned_rule(order, d)
    offsets = nodes.T * (math.sqrt(2.0) * math.sqrt(var_per_dim))
    # log p(y | m_k) at y = m_k + offset
    log_own = -np.sum(offsets * offsets, axis=1) / (2.0 * var_per_dim) - 0.5 * d * math.log(
        2.0 * math.pi * var_per_dim
    )
    term_weights = priors if term_weights is None else term_weights
    i_nats = 0.0
    for k in range(len(means)):
        if term_weights[k] == 0.0:
            continue
        lp = _mixture_logpdf(offsets, means - means[k], priors, var_per_dim)
        i_nats += float(term_weights[k]) * float(np.dot(weights, log_own - lp))
    return i_nats / math.log(2.0)


def kernel_rate(means, priors, var_per_dim, order):
    """The library's rate kernel on a checked (n, d) array, in bits."""
    plan = mi._alphabet_plan(means, priors)
    return mi._rate_nats(plan, unit_var(plan, var_per_dim), order) / math.log(2.0)


def unit_var(plan, var_per_dim):
    """The variance per dimension ``var_per_dim`` in the units of ``plan``,
    as _rate_nats takes it."""
    return var_per_dim * plan.factor * plan.factor


def _psk8_points():
    return np.array(Constellation.psk8().points)


def _column(points):
    return np.array(points, dtype=float)[:, None]


def _random_set(seed, d=2):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 8))
    priors = rng.random(n) + 0.05
    return rng.normal(0.0, 1.0, (n, d)), priors / priors.sum()


_QAM16 = np.array([(x, y) for x in (-3.0, -1.0, 1.0, 3.0) for y in (-3.0, -1.0, 1.0, 3.0)]) / math.sqrt(10.0)
# 16-QAM with priors by ring: 0.04 at the corners, 0.0625 on the edges and
# 0.085 inside. 0.04 x 0.085 is not 0.0625^2, so the priors are no product
# of marginals, and the alphabet keeps 16-QAM's three classes in 2-D.
_QAM16_RINGS = np.array([{18: 0.04, 10: 0.0625, 2: 0.085}[round(10.0 * float(p @ p))] for p in _QAM16])
_PSK8_SKEWED = np.array([0.2, 0.05, 0.2, 0.05, 0.2, 0.05, 0.2, 0.05])
_COCKTAIL = CocktailParams.from_ratio(3.5, 1.0)

# (means, priors) with unit-order energy, scaled per test to each SNR; 1-D
# means are (n, 1) columns.
MIXTURES = {
    "qpsk": (np.array(Constellation.qpsk().points), np.full(4, 0.25)),
    "8psk": (_psk8_points(), np.full(8, 0.125)),
    "8psk-shifted": (_psk8_points() + (0.7, -1.3), np.full(8, 0.125)),
    "8psk-far": (_psk8_points() + (1e3, -1e3), np.full(8, 0.125)),
    "8psk-nonuniform": (_psk8_points(), _PSK8_SKEWED),
    "qpsk-zero-prior": (
        np.vstack([Constellation.qpsk().points, [(2.0, 0.5)]]),
        np.array([0.25, 0.25, 0.25, 0.25, 0.0]),
    ),
    "8psk-centroid": (np.vstack([_psk8_points(), [(0.0, 0.0)]]), np.array([0.1] * 8 + [0.2])),
    "16qam": (_QAM16, np.full(16, 1.0 / 16.0)),
    "16qam-rings": (_QAM16, _QAM16_RINGS),
    # QPSK and its centre: no product, a diagonal class and the centre's.
    "qpsk-centroid": (np.vstack([Constellation.qpsk().points, [(0.0, 0.0)]]), np.full(5, 0.2)),
    "random-1": _random_set(1),
    "random-2": _random_set(2),
    "random-3": _random_set(3),
    "1d-bpsk": (_column(Constellation.bpsk().points), np.full(2, 0.5)),
    "1d-4ask": (_column(Constellation.ask4().points), np.full(4, 0.25)),
    "1d-cocktail-4pam": (
        _column((_COCKTAIL.alpha, -_COCKTAIL.alpha, 0.5 * _COCKTAIL.beta, -0.5 * _COCKTAIL.beta)),
        np.full(4, 0.25),
    ),
    "1d-4ask-nonuniform": (_column(Constellation.ask4().points), np.array([0.1, 0.4, 0.4, 0.1])),
    "1d-bpsk-zero-prior": (_column((1.0, -1.0, 5.0)), np.array([0.5, 0.5, 0.0])),
    "1d-with-origin": (_column((-1.0, 0.0, 1.0)), np.full(3, 1.0 / 3.0)),
    "1d-random-1": _random_set(1, d=1),
    "1d-random-2": _random_set(2, d=1),
    "1d-random-3": _random_set(3, d=1),
}


def live_classes(means, priors):
    """_symmetry_classes of the live components (prior > 0), as the mixture
    kernel selects them, with indices into the full ``means``."""
    live = np.flatnonzero(priors > 0.0)
    centred, tol = mi._centred(means[live], priors[live])
    classes, _ = _symmetry_classes(centred, priors[live], tol)
    return [(int(live[k]), weight) for k, weight, _ in classes]


class TestSymmetryClasses:
    @pytest.mark.parametrize("name", sorted(MIXTURES))
    @pytest.mark.parametrize("rho", [1e-6, 1e-3, 1.0, 7.0, 100.0, 1e4])
    def test_matches_all_components_sum(self, name, rho):
        # Order 96 keeps the reference cheap. The reference gives each
        # component its orbit representative's term, its class's summed
        # prior on the representative: the members of an orbit have equal
        # terms in exact arithmetic, but not on the rule, which keeps only
        # the signed axis maps (8psk's axis and diagonal terms differ by
        # 2.0e-10 bits at order 96 and rho = 7). So this is exact up to
        # summation order; the grouping itself is held to the exact rate by
        # TestPsk8Oracle.
        means, priors = MIXTURES[name]
        means = means * math.sqrt(rho)
        got = kernel_rate(means, priors, 0.5, 96)
        term_weights = np.zeros(len(priors))
        for k, weight in live_classes(means, priors):
            term_weights[k] = weight
        want = all_components_rate(means, priors, 0.5, 96, term_weights)
        assert abs(got - want) <= 1e-12, f"{name} at rho={rho}: {got!r} vs {want!r}"

    @pytest.mark.parametrize(
        "name,classes",
        [
            ("qpsk", 1),
            # The eight points are one orbit under the rotations by pi/4;
            # priors that alternate leave the axis and diagonal points apart.
            ("8psk", 1),
            ("8psk-shifted", 1),
            ("8psk-nonuniform", 2),
            ("qpsk-zero-prior", 1),
            ("8psk-centroid", 2),
            ("16qam", 3),
            ("16qam-rings", 3),
            ("qpsk-centroid", 2),
            ("1d-bpsk", 1),
            ("1d-4ask", 2),
            ("1d-cocktail-4pam", 2),
            ("1d-4ask-nonuniform", 2),
            ("1d-bpsk-zero-prior", 1),
            ("1d-with-origin", 2),
        ],
    )
    def test_class_count(self, name, classes):
        means, priors = MIXTURES[name]
        found = live_classes(means, priors)
        assert len(found) == classes
        assert sum(weight for _, weight in found) == pytest.approx(1.0, abs=1e-12)
        assert all(priors[k] > 0.0 for k, _ in found)

    def test_isometries_keep_the_radius(self):
        # A centre point of the same prior is no image of a ring point: the
        # map that would send one onto it is not orthogonal.
        means, priors = np.array([(0.0, 0.0), (-1.0, 0.0), (1.0, 0.0)]), np.full(3, 1.0 / 3.0)
        assert live_classes(means, priors) == [(0, pytest.approx(1.0 / 3.0)), (1, pytest.approx(2.0 / 3.0))]

    def test_turned_8psk_is_one_class_in_any_order(self):
        # Turned by a generic angle, 8-PSK keeps no reflection of the rule,
        # and its members' terms differ by the rule's error; the
        # representative is chosen by geometry, so the rate moves by
        # rounding alone when the points are listed in another order.
        means, priors = _turned(_psk8_points(), 0.3) * math.sqrt(7.0), np.full(8, 0.125)
        want = kernel_rate(means, priors, 0.5, 96)
        for perm in np.random.default_rng(5).permuted(np.tile(np.arange(8), (4, 1)), axis=1):
            assert len(live_classes(means[perm], priors)) == 1
            assert abs(kernel_rate(means[perm], priors, 0.5, 96) - want) <= 4e-15

    def test_classes_never_mix_priors(self):
        means, priors = MIXTURES["8psk-nonuniform"]
        for k, weight in live_classes(means, priors):
            assert weight == pytest.approx(4 * priors[k], abs=1e-15)
        means, priors = MIXTURES["qpsk"]
        assert len(live_classes(means, np.array([0.4, 0.1, 0.4, 0.1]))) == 2

    @pytest.mark.parametrize("name", sorted(MIXTURES))
    def test_independent_of_component_order(self, name):
        # Listing the components in another order changes only the order of
        # the sums: the classes keep their summed priors, and the rate moves
        # by rounding alone.
        means, priors = MIXTURES[name]
        want_weights = sorted(weight for _, weight in live_classes(means, priors))
        rng = np.random.default_rng(17)
        for _ in range(3):
            perm = rng.permutation(len(priors))
            got_weights = sorted(weight for _, weight in live_classes(means[perm], priors[perm]))
            assert got_weights == pytest.approx(want_weights, abs=1e-15)
            for rho in (1e-3, 1.0, 100.0):
                scaled = means * math.sqrt(rho)
                want = kernel_rate(scaled, priors, 0.5, 96)
                got = kernel_rate(scaled[perm], priors[perm], 0.5, 96)
                assert abs(got - want) <= 4e-15, f"{name} at rho={rho}: {got!r} vs {want!r}"


# Fresh alphabets for the kernel-plan tests: 1-D and 2-D, uniform and not,
# with and without a zero prior.
PLAN_ALPHABETS = {
    "4ask": Constellation.ask4,
    "8psk": Constellation.psk8,
    "1d-nonuniform": lambda: Constellation(Constellation.ask4().points, (0.1, 0.4, 0.4, 0.1)),
    "1d-zero-prior": lambda: Constellation((1.0, -1.0, 5.0), (0.5, 0.5, 0.0)),
    "qpsk-zero-prior": lambda: Constellation((*Constellation.qpsk().points, (2.0, 0.5)), (0.25,) * 4 + (0.0,)),
}


class TestKernelPlan:
    @pytest.mark.parametrize("name", ["4ask", "8psk", "qpsk-zero-prior"])
    def test_symmetry_search_runs_once_per_constellation(self, monkeypatch, name):
        calls = []
        search = mi._symmetry_classes

        def counted(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(mi, "_symmetry_classes", counted)
        c = PLAN_ALPHABETS[name]()
        for var in np.geomspace(1e-2, 1e2, 20):
            constellation_mi(c, NoiseModel(float(var)))
        assert len(calls) == 1

    @pytest.mark.parametrize("name", sorted(PLAN_ALPHABETS))
    def test_equal_constellations_give_identical_bits(self, name):
        a, b = PLAN_ALPHABETS[name](), PLAN_ALPHABETS[name]()
        for var in (1e-3, 0.5, 2.0, 1e3):
            noise = NoiseModel(var)
            assert constellation_mi(a, noise).hex() == constellation_mi(b, noise).hex()
            assert constellation_mi(a, noise, order=64).hex() == constellation_mi(b, noise, order=64).hex()

    @pytest.mark.parametrize("name", sorted(PLAN_ALPHABETS))
    def test_built_plan_leaves_equality_and_copies_alone(self, name):
        c = PLAN_ALPHABETS[name]()
        noise = NoiseModel(0.7)
        rate = constellation_mi(c, noise)
        assert "_plan" in vars(c)
        fresh = PLAN_ALPHABETS[name]()
        assert c == fresh and hash(c) == hash(fresh) and repr(c) == repr(fresh)
        for copied in (pickle.loads(pickle.dumps(c)), copy.deepcopy(c), copy.copy(c), c.scaled(1.0)):
            # Copies build their own plan, to the same bits.
            assert copied == c and hash(copied) == hash(c) and "_plan" not in vars(copied)
            assert constellation_mi(copied, noise).hex() == rate.hex()

    @pytest.mark.parametrize(
        "source,name", [("mixture", n) for n in sorted(MIXTURES)] + [("alphabet", n) for n in sorted(PLAN_ALPHABETS)]
    )
    def test_series_exactly_when_centrally_symmetric(self, source, name):
        # The plan takes the series when the symmetry search proves the map
        # at index _INVERSION, which must be x -> -x. Here the live points
        # are reflected through their centroid one by one instead: every
        # image must land on a live point of the same prior, within 1e-9 of
        # the extent. The random sets fail that, every other alphabet passes.
        if source == "mixture":
            means, priors = MIXTURES[name]
            plan = mi._alphabet_plan(means, priors)
        else:
            c = PLAN_ALPHABETS[name]()
            means, priors, plan = c.as_array(), np.array(c.priors), c._plan
        live = priors > 0.0
        pts, pri = means[live], priors[live]
        centroid = pri @ pts / pri.sum()
        tol = 1e-9 * np.ptp(pts, axis=0).max()
        symmetric = all(
            any(p == q and np.abs(2.0 * centroid - x - y).max() <= tol for y, q in zip(pts, pri))
            for x, p in zip(pts, pri)
        )
        assert (plan.series is None) == (not symmetric)
        assert symmetric == ("random" not in name)
        d = pts.shape[1]
        assert np.array_equal(mi._AXIS_MATRICES[d][mi._INVERSION[d]], -np.eye(d))

    @pytest.mark.parametrize("name", sorted(PLAN_ALPHABETS))
    def test_plan_holds_live_components_read_only(self, name):
        c = PLAN_ALPHABETS[name]()
        plan = c._plan
        live = [p for p in c.priors if p > 0.0]
        if name == "qpsk-zero-prior":
            # An axis product: its one rail, the priors its marginals, the
            # class weights doubled for the two equal rails.
            assert plan.dimension == 1 and len(plan.passes) == 1
            rails, total = [[0.5, 0.5]], 2.0
        else:
            assert plan.dimension == c.dimension
            rails, total = [live] * len(plan.passes), 1.0
        assert [p.priors.tolist() for p in plan.passes] == rails
        assert sum(weight for p in plan.passes for weight in p.weights) == pytest.approx(total, abs=1e-12)
        for p in plan.passes:
            assert (p.log_ratio is None) == (len(set(p.priors.tolist())) == 1)
            arrays = [p.priors, p.delta, p.sq] + ([] if p.log_ratio is None else [p.log_ratio])
            assert not any(a.flags.writeable for a in arrays)
            assert isinstance(p.weights, tuple)
            n = len(p.priors)
            assert p.delta.shape == (len(p.weights), n, plan.dimension) and p.sq.shape == (len(p.weights), n, 1)


class TestPrunedRule:
    @pytest.mark.parametrize("order,d,kept", [(256, 1, 116), (192, 2, 7556), (96, 2, 3660)])
    def test_keeps_the_weight(self, order, d, kept):
        nodes, weights = mi._unit_rule(order, d, ())
        full_nodes, full_weights = unpruned_rule(order, d)
        keep = full_weights > mi._WEIGHT_FLOOR
        assert nodes.shape == (d, kept) and weights.shape == (kept,)
        assert nodes.flags.c_contiguous and not nodes.flags.writeable and not weights.flags.writeable
        np.testing.assert_array_equal(nodes, full_nodes[:, keep])
        assert weights.min() > mi._WEIGHT_FLOOR
        # The full rule sums to 1 only to rounding; pruning takes off less
        # than 1e-27 of that sum.
        assert abs(math.fsum(weights) - 1.0) <= 1e-15
        assert abs(math.fsum(full_weights) - math.fsum(weights)) <= 1e-27
        # The a-priori bound of _unit_rule, for any prior down to e^-700.
        dropped = ~keep
        t2 = np.sum(full_nodes[:, dropped] ** 2, axis=0)
        assert math.fsum(full_weights[dropped] * (t2 + 700.0)) / math.log(2.0) <= 1e-20

    @pytest.mark.parametrize("name", ["qpsk", "8psk", "16qam", "1d-4ask", "random-1"])
    @pytest.mark.parametrize("rho", [1e-6, 1e-3, 1.0, 10.0, 1e2, 1e4])
    @pytest.mark.parametrize("tiny_prior", [False, True])
    def test_matches_unpruned_rule(self, monkeypatch, name, rho, tiny_prior):
        means, priors = MIXTURES[name]
        means = means * math.sqrt(rho)
        if tiny_prior:
            priors = np.full(len(priors), 1.0 / (len(priors) - 1))
            priors[0] = 1e-200
        order = mi._DEFAULT_ORDER[means.shape[1]]
        got = kernel_rate(means, priors, 0.5, order)
        calls = []

        def unfolded_unpruned_rule(order, d, maps):
            # The full rule for every pass, whatever its stabilizer.
            calls.append(maps)
            return unpruned_rule(order, d)

        monkeypatch.setattr(mi, "_unit_rule", unfolded_unpruned_rule)
        want = kernel_rate(means, priors, 0.5, order)
        assert len(calls) == len(mi._alphabet_plan(means, priors).passes)
        assert abs(got - want) <= 1e-14, f"{name} at rho={rho}: {got!r} vs {want!r}"


def rule_orbits(nodes, maps):
    """The orbit of each node, a column of ``nodes`` (d, m), under the
    signed axis maps ``maps`` and the identity, each orbit a frozenset of
    coordinate tuples, found from the node values alone."""
    matrices = mi._AXIS_MATRICES[nodes.shape[0]]
    group = (0, *maps)
    return [frozenset(tuple((matrices[g] @ t).tolist()) for g in group) for t in nodes.T]


class TestFoldedRule:
    @pytest.mark.parametrize(
        "name,orders",
        [
            ("qpsk", [2]),
            ("qpsk-zero-prior", [2]),
            # A point on an axis is fixed by the mirror in that axis, one on
            # a diagonal by the swap of the axes, the centre by all 8 maps.
            # One class of 8psk is represented by its point (1, 0).
            ("8psk", [2]),
            ("8psk-shifted", [2]),
            ("8psk-far", [2]),
            ("8psk-nonuniform", [2, 2]),
            ("8psk-centroid", [2, 8]),
            ("16qam", [2, 1, 2]),
            ("1d-with-origin", [1, 2]),
            ("1d-bpsk", [1]),
            ("1d-4ask", [1, 1]),
            ("1d-cocktail-4pam", [1, 1]),
            ("1d-4ask-nonuniform", [1, 1]),
            ("1d-bpsk-zero-prior", [1]),
            ("1d-random-1", [1] * 5),
            ("random-1", [1] * 5),
            ("random-2", [1] * 7),
            ("random-3", [1] * 7),
            ("16qam-rings", [2, 1, 2]),
            ("qpsk-centroid", [2, 8]),
        ],
    )
    def test_stabilizer_orders(self, name, orders):
        means, priors = MIXTURES[name]
        live = priors > 0.0
        pts, pri = means[live], priors[live]
        centred, tol = mi._centred(pts, pri)
        found, _ = _symmetry_classes(centred, pri, tol)
        assert [1 + len(maps) for _, _, maps in found] == orders
        # Each stabilizer map fixes its representative about the centroid.
        for k, _, maps in found:
            offset = pts[k] - pri @ pts / pri.sum()
            for g in maps:
                np.testing.assert_allclose(mi._AXIS_MATRICES[pts.shape[1]][g] @ offset, offset, atol=1e-12)

    @pytest.mark.parametrize(
        "name,order,counts",
        [
            ("qpsk", 192, [3813]),
            ("8psk", 192, [3778]),
            ("qpsk", 96, [1855]),
            ("8psk", 96, [1830]),
            ("8psk-centroid", 192, [3778, 962]),
            ("1d-with-origin", 256, [116, 58]),
            ("1d-4ask", 256, [116, 116]),
            ("random-1", 192, [7556] * 5),
            ("qpsk-centroid", 192, [3813, 962]),
            ("qpsk-centroid", 96, [1855, 470]),
        ],
    )
    def test_folds_each_class_rule_exactly(self, name, order, counts):
        # The rule of each symmetry class, as its stabilizer folds it. qpsk
        # is an axis product and runs as its 1-D rail, so its class's rule
        # is taken from the symmetry search; qpsk-centroid, which is no
        # product, runs that 3813-node rule in its kernel plan.
        means, priors = MIXTURES[name]
        d = means.shape[1]
        live = priors > 0.0
        centred, tol = mi._centred(means[live], priors[live])
        stabilizers = [maps for _, _, maps in _symmetry_classes(centred, priors[live], tol)[0]]
        plan = mi._alphabet_plan(means, priors)
        if plan.dimension == d:
            assert stabilizers == [p.maps for p in plan.passes for _ in p.weights]
        pruned_nodes, pruned_weights = mi._unit_rule(order, d, ())
        pruned = dict(zip(map(tuple, pruned_nodes.T.tolist()), pruned_weights.tolist()))
        assert [mi._unit_rule(order, d, maps)[1].size for maps in stabilizers] == counts
        for maps in stabilizers:
            nodes, weights = mi._unit_rule(order, d, maps)
            assert nodes.flags.c_contiguous and not nodes.flags.writeable and not weights.flags.writeable
            if not maps:
                # A trivial stabilizer takes the pruned rule itself.
                assert nodes is pruned_nodes and weights is pruned_weights
                continue
            orbits = rule_orbits(nodes, maps)
            # The orbits are disjoint and cover the pruned rule; each folded
            # weight is a pruned weight times its orbit's size, exactly.
            assert sum(map(len, orbits)) == len(pruned) and set().union(*orbits) == set(pruned)
            for orbit, t, w in zip(orbits, nodes.T.tolist(), weights.tolist()):
                assert w == len(orbit) * pruned[tuple(t)]
                assert len({pruned[u] for u in orbit}) == 1
            assert abs(math.fsum(weights) - math.fsum(pruned_weights)) <= 1e-15

    @pytest.mark.parametrize("name", sorted(MIXTURES))
    @pytest.mark.parametrize("rho", [1e-6, 1e-3, 1.0, 7.0, 100.0, 1e4])
    def test_matches_the_unfolded_rule(self, name, rho):
        # Each class's term is invariant under its stabilizer, so folding
        # moves a rate by summation order alone. 8psk-far is the exception:
        # its coordinates, near 2.6e3 at rho = 7, are symmetric only to their
        # rounding, 4.5e-13, so its terms differ under the stabilizer by as
        # much as its class members do, and the fold moves the rate by as
        # much as the grouping into classes does (1.2e-13 bits when
        # measured; test_matches_all_components_sum bounds both at 1e-12).
        bound = 1e-12 if name == "8psk-far" else 2e-15
        means, priors = MIXTURES[name]
        means = means * math.sqrt(rho)
        order = mi._DEFAULT_ORDER[means.shape[1]]
        plan = mi._alphabet_plan(means, priors)
        unfolded = plan._replace(passes=tuple(p._replace(maps=()) for p in plan.passes))
        got = mi._rate_nats(plan, unit_var(plan, 0.5), order) / math.log(2.0)
        want = mi._rate_nats(unfolded, unit_var(plan, 0.5), order) / math.log(2.0)
        assert abs(got - want) <= bound, f"{name} at rho={rho}: {got!r} vs {want!r}"
        if not any(p.maps for p in plan.passes):
            assert got.hex() == want.hex()


def _grid_alphabet(xs, ys, px, py):
    """The product alphabet X x Y as (means, priors): every (x, y), with
    prior p_x p_y."""
    return np.array([(x, y) for x in xs for y in ys]), np.array([a * b for a in px for b in py])


_GRID_2X3 = _grid_alphabet((-1.0, 0.5), (-1.2, 0.1, 0.9), (0.3, 0.7), (0.2, 0.5, 0.3))
_PERTURBED = _GRID_2X3[1] + np.array([1e-13, -1e-13, 0.0, 0.0, 0.0, 0.0])

# Axis-aligned products, planned as their 1-D factors: (means, priors,
# [(points, priors, count) of each factor's 1-D alphabet, count 2 for two
# equal factors]).
AXIS_PRODUCTS = {
    "2x3-nonuniform": (*_GRID_2X3, [((-1.0, 0.5), (0.3, 0.7), 1), ((-1.2, 0.1, 0.9), (0.2, 0.5, 0.3), 1)]),
    "16qam": (
        _QAM16,
        np.full(16, 1.0 / 16.0),
        [(tuple(np.array([-3.0, -1.0, 1.0, 3.0]) / math.sqrt(10.0)), (0.25,) * 4, 2)],
    ),
    "qpsk-shifted": (
        np.array(Constellation.qpsk().points) + (3.0, -1.0),
        np.full(4, 0.25),
        [((3.0 - math.sqrt(0.5), 3.0 + math.sqrt(0.5)), (0.5, 0.5), 1),
         ((-1.0 - math.sqrt(0.5), -1.0 + math.sqrt(0.5)), (0.5, 0.5), 1)],
    ),
    "qpsk-zero-prior": (*MIXTURES["qpsk-zero-prior"], [((-math.sqrt(0.5), math.sqrt(0.5)), (0.5, 0.5), 2)]),
    # A factor of one point carries no information and runs no pass.
    "line": (
        np.array([(-1.0, 2.0), (0.0, 2.0), (3.0, 2.0)]),
        np.array([0.2, 0.5, 0.3]),
        [((-1.0, 0.0, 3.0), (0.2, 0.5, 0.3), 1)],
    ),
}

# 2-D alphabets that are no axis product, and keep the 2-D kernel.
NOT_AXIS_PRODUCTS = {
    "8psk": MIXTURES["8psk"],
    "qpsk-turned-0.3": (_turned(Constellation.qpsk().points, 0.3), np.full(4, 0.25)),
    "qpsk-turned-pi/4": (np.array([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]), np.full(4, 0.25)),
    "perturbed-priors": (_GRID_2X3[0], _PERTURBED),
    "missing-cell": (_GRID_2X3[0][1:], np.full(5, 0.2)),
    "16qam-rings": MIXTURES["16qam-rings"],
}


class TestAxisProducts:
    @pytest.mark.parametrize("name", sorted(AXIS_PRODUCTS))
    def test_plans_the_1d_factors(self, name):
        # The plan's passes are those of each factor's own 1-D plan, with
        # the class weights times the factor's count.
        means, priors, factors = AXIS_PRODUCTS[name]
        plan = mi._alphabet_plan(means, priors)
        assert plan.dimension == 1
        # Offsets in the alphabet's own units: a factor's own plan may take
        # another unit than the product's.
        def raw(p, f):
            return (p.delta / f).tolist(), (p.sq / f**2).tolist()

        want = [
            (p.maps, tuple(count * w for w in p.weights), *raw(p, fp.factor), p.priors.tolist())
            for points, marginal, count in factors
            for fp in [mi._alphabet_plan(_column(points), np.array(marginal))]
            for p in fp.passes
        ]
        got = [(p.maps, p.weights, *raw(p, plan.factor), p.priors.tolist()) for p in plan.passes]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g[0] == w[0] and g[1] == pytest.approx(w[1], abs=1e-15)
            np.testing.assert_allclose(g[2], w[2], rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(g[3], w[3], rtol=0.0, atol=1e-15)
            np.testing.assert_allclose(g[4], w[4], rtol=0.0, atol=1e-15)
        assert plan.widest == max(p.sq.max() for p in plan.passes)

    @pytest.mark.parametrize("name", sorted(AXIS_PRODUCTS))
    @pytest.mark.parametrize("rho", [1e-3, 1.0, 7.0, 100.0])
    def test_matches_the_full_tensor_rule(self, name, rho):
        # The tensor rule of order n is the product of the 1-D rules of
        # order n, so an explicit order keeps its meaning: the factors' rates
        # meet every component's term on the full, unpruned 2-D rule to
        # rounding.
        means, priors, _ = AXIS_PRODUCTS[name]
        means = means * math.sqrt(rho)
        for order in (32, 96):
            got = kernel_rate(means, priors, 0.5, order)
            want = all_components_rate(means, priors, 0.5, order)
            assert abs(got - want) <= 2e-15, f"order {order}: {got!r} vs {want!r}"

    @pytest.mark.parametrize("name", sorted(NOT_AXIS_PRODUCTS))
    def test_others_keep_the_2d_kernel_to_the_bit(self, monkeypatch, name):
        means, priors = NOT_AXIS_PRODUCTS[name]
        rates = []
        for route in ("found", "forced 2-D"):
            plan = mi._alphabet_plan(means, priors)
            assert plan.dimension == 2
            rates.append([
                kernel_rate(means * math.sqrt(rho), priors, 0.5, order).hex()
                for rho in (1e-3, 1.0, 7.0, 100.0)
                for order in (64, 192)
            ])
            monkeypatch.setattr(mi, "_axis_factors", lambda *args: [])
        assert rates[0] == rates[1]

    @pytest.mark.parametrize("name", ["qpsk", "16qam"])
    def test_series_stays_the_2d_covariance(self, name):
        # The low-SNR series reads the 2-D covariance, so rates at
        # tr S <= 1e-8 keep their bits.
        means, priors = MIXTURES[name]
        plan = mi._alphabet_plan(means, priors)
        centred = means - priors @ means
        cov = centred.T @ (centred * priors[:, None])
        series = tuple(t / plan.factor ** (2 * k) for k, t in enumerate(plan.series, 1))
        assert series == pytest.approx((np.trace(cov), np.trace(cov @ cov), np.trace(cov @ cov @ cov)), rel=1e-15)


BUILT_IN = (Constellation.bpsk, Constellation.ask4, Constellation.qpsk, Constellation.psk8)
# The alphabets of the domain test: the built-in ones and every mixture.
SCALE_ALPHABETS = {
    **{make.__name__: (c.as_array(), np.array(c.priors)) for make in BUILT_IN for c in [make()]},
    **MIXTURES,
}


class TestOneScale:
    """constellation_mi over the whole domain of energies and noise levels,
    with warnings as errors: the kernel plan holds each alphabet in units of
    a power of two, and the kernel reads one variance in those units."""

    @pytest.mark.parametrize("name", sorted(SCALE_ALPHABETS))
    def test_power_of_two_rescaling_keeps_every_bit(self, name):
        # c.scaled(2^j) at 4^j times the noise is c in other units: every
        # product is exact while the variance stays a normal float, so the
        # rate must keep its bits.
        points, priors = SCALE_ALPHABETS[name]
        moved = []
        for rho in (1e-12, 3.0, 1e306):
            want = constellation_mi(Constellation(points, priors), NoiseModel(1.0 / rho)).hex()
            for j in range(-500, 501, 25):
                variance = 4.0**j / rho
                if 2.0 * sys.float_info.min <= variance <= sys.float_info.max:
                    got = constellation_mi(Constellation(points * 2.0**j, priors), NoiseModel(variance)).hex()
                    if got != want:
                        moved.append((rho, j, got, want))
        assert not moved, f"{len(moved)} rates moved, first {moved[:3]}"

    @pytest.mark.parametrize("make", BUILT_IN)
    def test_energy_1e104_at_snr_1e_20(self, make):
        # tr C^3 in the alphabet's own units would overflow here, and the
        # rate would read log2 M.
        got = constellation_mi(make().scaled(1e52), NoiseModel(1e124))
        assert abs(got / (1e-20 * LOG2E) - 1.0) <= 1e-15, got

    def test_4_pam_at_energy_5e200(self):
        got = constellation_mi(Constellation(np.array([-3.0, -1.0, 1.0, 3.0]) * 1e100), NoiseModel(1e300))
        assert abs(got / (5e-100 * LOG2E) - 1.0) <= 1e-15, got

    @pytest.mark.parametrize("make", BUILT_IN)
    def test_energy_1e308_at_snr_1(self, make):
        # |m_k - m_j|^2 in the alphabet's own units would overflow here.
        c = make()
        got = constellation_mi(c.scaled(1e154), NoiseModel(1e308))
        assert abs(got - constellation_mi(c, NoiseModel(1.0))) <= 1e-15

    def test_subnormal_variance_keeps_the_digits(self):
        # Half of 2 x 4^-532 is 2^-1064, a subnormal power of two; in the
        # plan's units it is 2^-4, as at NoiseModel(2.0).
        c = Constellation.ask4()
        got = constellation_mi(c.scaled(2.0**-532), NoiseModel(2.0 * 4.0**-532))
        assert got.hex() == constellation_mi(c, NoiseModel(2.0)).hex()

    def test_floor_keeps_pairs_wider_than_1e_152_resolved(self):
        # At the least noise the pair {0, d} of {0, d, 1} is resolved, and
        # the floor on the variance in the plan's unit keeps the rate at
        # log2 3 for d from 9.9e-153 up (below that it holds the rate under
        # log2 3: the floor's measured cost).
        for d in (1e-152, 1e-100, 0.5):
            assert constellation_mi(Constellation((0.0, d, 1.0)), NoiseModel(1e-323)) == math.log2(3.0)


def plain_bpsk_mi(amplitude, variance, order=256):
    """bpsk_mi as the plain numpy expression of its docstring, at
    ``variance`` per real dimension, one temporary per operation: the
    reference for the bits of the library's in-place chain."""
    nodes, w = mi._unit_rule(order, 1, ())
    q = min(amplitude / math.sqrt(variance), mi._MEAN_CAP)
    s = q * q
    if s <= mi._SERIES_MAX_S:
        return s * (0.5 - s * (0.25 - s / 6.0)) / math.log(2.0)
    u = -2.0 * q * (q + math.sqrt(2.0) * nodes[0])
    f = np.maximum(u, 0.0) + np.log1p(np.expm1(-np.abs(u)) / 2.0)
    return min(1.0, max(0.0, -float(np.dot(w, f)) / math.log(2.0)))


def unstacked_rate_nats(plan, var, order):
    """_rate_nats one class at a time, in the order the plan's passes list
    them, each exponent by its own matrix product, at the variance ``var``
    in the plan's units: the reference for the bits of the library's
    stacked passes."""
    scale = -math.sqrt(2.0 / var)
    rate = 0.0
    for maps, class_weights, deltas, sqs, pri, log_ratio in plan.passes:
        for weight, delta, sq in zip(class_weights, deltas, sqs):
            nodes, weights = mi._unit_rule(order, plan.dimension, maps)
            u = np.matmul(delta * scale, nodes)
            u -= sq / (2.0 * var)
            c = np.max(u if log_ratio is None else u + log_ratio[:, None], axis=0)
            u -= c
            np.expm1(u, out=u)
            lse = np.log1p(pri @ u) + c
            rate -= weight * float(np.dot(weights, lse))
    return rate


class TestLeanKernelBits:
    """The lean kernels keep every operation, its operands and its order, so
    they match the plain references above to the bit."""

    @staticmethod
    def assert_same_bits(pairs):
        moved = [(where, got.hex(), want.hex()) for where, got, want in pairs if got.hex() != want.hex()]
        assert not moved, f"{len(moved)} values moved, first {moved[:3]}"

    @pytest.mark.parametrize("var", [0.5, 1.0, 3.7])
    def test_bpsk_mi_on_seeded_amplitudes(self, var):
        # s = A^2 / v from 1e-9 to 4e3, v = var per real dimension: the
        # series, the quadrature and its rounding to 1 bit.
        noise = NoiseModel(2.0 * var)
        amplitudes = (10.0 ** np.random.default_rng(22).uniform(-4.5, 1.8, 2000)).tolist()
        self.assert_same_bits((a, bpsk_mi(a, noise), plain_bpsk_mi(a, var)) for a in amplitudes)

    def test_bpsk_mi_series_and_saturation(self):
        rng = np.random.default_rng(23)
        series = (10.0 ** rng.uniform(-160.0, -4.0, 300)).tolist()
        assert all(a * a <= mi._SERIES_MAX_S for a in series)
        saturated = (10.0 ** rng.uniform(154.0, 300.0, 100)).tolist()
        assert all(a > mi._MEAN_CAP for a in saturated)
        noise = NoiseModel(2.0)
        self.assert_same_bits((a, bpsk_mi(a, noise), plain_bpsk_mi(a, 1.0)) for a in series + saturated)

    @pytest.mark.parametrize("order", [8, 64, 255])
    def test_bpsk_mi_at_other_orders(self, order):
        noise = NoiseModel(1.0)
        amplitudes = (10.0 ** np.random.default_rng(order).uniform(-4.0, 1.5, 300)).tolist()
        self.assert_same_bits(
            (a, bpsk_mi(a, noise, order), plain_bpsk_mi(a, 0.5, order)) for a in amplitudes
        )

    def test_bpsk_mi_keeps_its_pinned_bits(self):
        # The sha256 of the float.hex of 60 rates, captured before -|u| was
        # formed by copysign. At q <= 8 the nodes sqrt(2) t, which reach
        # +-16.3, put u on both sides of 0 at every amplitude. Variance 1 per
        # real dimension.
        noise = NoiseModel(2.0)
        rates = [bpsk_mi(a, noise).hex() for a in np.geomspace(1e-3, 8.0, 60).tolist()]
        digest = hashlib.sha256(" ".join(rates).encode()).hexdigest()
        assert digest == "102890624fad145249e1952a382166a347ae4b1163f3d35b4c0e82e36c7947f9"

    def test_bpsk_mi_keeps_its_bits_over_its_whole_domain(self):
        # The sha256 of the float.hex of 24,168 rates, captured while
        # bpsk_mi still returned 0 at amplitude 0 and 1 above q = 3.35e153
        # on their own branches: amplitudes from 0 to the float maximum
        # (3.3e153 and 3.4e153 straddle that threshold at variance 2) at
        # noise variances from 1e-323 to the float maximum, orders 8 and
        # 256. Under the suite's filterwarnings = error an overflow fails it.
        amplitudes = [
            0.0, 5e-324, 1e-300, 1e-160, 0.3, 7.0, 40.0, 1e16, 1e100, 2.0**500,
            3.3e153, 3.4e153, 1e300, sys.float_info.max,
        ] + (10.0 ** np.random.default_rng(34).uniform(-320.0, 308.0, 2000)).tolist()
        rates = [
            bpsk_mi(a, NoiseModel(v), order).hex()
            for order in (8, 256)
            for v in (1e-323, 1e-300, 0.5, 2.0, 1e300, sys.float_info.max)
            for a in amplitudes
        ]
        digest = hashlib.sha256(" ".join(rates).encode()).hexdigest()
        assert digest == "5ba428de49579321cb9ea32ddd8b402aa3b40958f6464b1905abdb2e73f83f62"

    @pytest.mark.parametrize("name", sorted(MIXTURES))
    def test_rate_nats_on_every_mixture(self, name):
        # 16qam-rings is the 2-D alphabet whose classes share a stabilizer.
        means, priors = MIXTURES[name]
        order = mi._DEFAULT_ORDER[means.shape[1]]
        pairs = []
        for rho in (1e-6, 1e-3, 1.0, 7.0, 100.0, 1e4):
            plan = mi._alphabet_plan(means * math.sqrt(rho), priors)
            var = unit_var(plan, 0.5)
            pairs.append((rho, mi._rate_nats(plan, var, order), unstacked_rate_nats(plan, var, order)))
        self.assert_same_bits(pairs)

    # The sha256 of the float.hex of each mixture's 12 rates: the rho of
    # test_rate_nats_on_every_mixture, at order 64 and at its default order.
    # Captured while the plan still kept a table of classes beside its
    # passes, except for the four 8psk mixtures that one class per orbit of
    # the alphabet's isometries regroups, captured again then: 8psk,
    # 8psk-shifted and 8psk-far went from two classes to one, and
    # 8psk-centroid from three to two. 8psk-nonuniform kept its classes and
    # its digest. qpsk, qpsk-zero-prior and 16qam were captured again when
    # axis products came to run as their 1-D factors (each of the 12 rates
    # moved by at most 1.3e-15 bits, and stays within 2.0e-9 bits of 2 x
    # the 30-digit rate of its factor); 16qam-rings and qpsk-centroid, which
    # are no products, were captured on the 2-D kernel before that change
    # and kept their bits through it.
    MIXTURE_DIGESTS = {
        "16qam": "60cd2028eaefc0abc1b95d9c0e931e03f150f26214369e7c851b8e63958621f4",
        "16qam-rings": "143643761d70191155df1fe6ff4ad6f8815391640db382a611c06e02aa5d79d1",
        "1d-4ask": "e0b089f517ef67e49027d6223768d58d37a741a99e30976f4705f7ffa8ea146d",
        "1d-4ask-nonuniform": "412237298eaa3a7d31c160fb4456957f5c7045d984bfd723bd9b850c2685c74d",
        "1d-bpsk": "8dba83f113e44c41ba463a607d71195cc59f9d004510fc7f853038415c167752",
        "1d-bpsk-zero-prior": "8dba83f113e44c41ba463a607d71195cc59f9d004510fc7f853038415c167752",
        "1d-cocktail-4pam": "1a6e6b1881d5a9f75a03a621d790acca56db2be180b55b48ba2063b273cb547c",
        "1d-random-1": "e584135f0e4b4d36120ed1f49a63d036ea312798b0a60b522d541028cc43cff4",
        "1d-random-2": "1ea26ead4ebe4bbc223e07b525bca6e5c11615b2b2f0c8d7c51789fe825b116e",
        "1d-random-3": "4b32cccb60a3fe4ecd0636398007c1a815cc5a49fc96dfa43ee57fda95d477f3",
        "1d-with-origin": "010653366943fb265ce102f3272ae80557d36fc5c0728b3d192960324bebee05",
        "8psk": "5e815fd2e946a43e0b817a825136f16e3e90c4ee3fd2f88c114e816d50bb1936",
        "8psk-centroid": "421dcab0b7cb59e957190e164a7ce0506645765662cb2c906a54b4ae9a80163f",
        "8psk-far": "48c53708c80eca54e4ed29131538c529ff400cd6cbd019d544f4570362862192",
        "8psk-nonuniform": "2efde084f8d02e11503ff58f62230d68a3bfbf89fbb2280c48914a777b938e89",
        "8psk-shifted": "07401ddfc5b1e833bbbefaed666f9579831b9c464dc57a68836692484d8c1945",
        "qpsk": "500ab6de902c26539f850ca1e3463c91bb45944b60d3406ad8c4f6cc7263477f",
        "qpsk-centroid": "fa48f6bfa6078c99de0ff258c53a79a6f3fcf08945ff09187f698566f20d6187",
        "qpsk-zero-prior": "500ab6de902c26539f850ca1e3463c91bb45944b60d3406ad8c4f6cc7263477f",
        "random-1": "60c1604a9fec121f6d3553df3a2e8e2be7f3efa5d486b8ebecdd5559962bd72a",
        "random-2": "781fd6b141106c81dad0eba56a3eb0cfba5b9db46d02c5bdaa81cf065d5044dd",
        "random-3": "a6986e5cd76ddfb35ab9b13c64aff3f3fae1de17a4ce64309bc0345f34ddd186",
    }

    def test_rate_nats_keeps_its_pinned_bits_on_every_mixture(self):
        moved = []
        for name in sorted(MIXTURES):
            means, priors = MIXTURES[name]
            rates = [
                kernel_rate(means * math.sqrt(rho), priors, 0.5, order).hex()
                for rho in (1e-6, 1e-3, 1.0, 7.0, 100.0, 1e4)
                for order in (64, mi._DEFAULT_ORDER[means.shape[1]])
            ]
            if hashlib.sha256(" ".join(rates).encode()).hexdigest() != self.MIXTURE_DIGESTS[name]:
                moved.append(name)
        assert sorted(self.MIXTURE_DIGESTS) == sorted(MIXTURES)
        assert not moved, f"rates moved on {moved}"

    # The centroid's class lies between two classes that share a
    # stabilizer, so they are not one run: three passes of one class each.
    INTERLEAVED = (_column((-2.0, 0.0, 2.0, -1.0, 1.0)), np.array([0.15, 0.3, 0.15, 0.2, 0.2]))

    @pytest.mark.parametrize(
        "name", ["1d-4ask", "1d-cocktail-4pam", "1d-4ask-nonuniform", "1d-with-origin", "interleaved"]
    )
    @pytest.mark.parametrize("order", [8, 64, 255, 256])
    def test_rate_nats_at_other_orders(self, name, order):
        means, priors = self.INTERLEAVED if name == "interleaved" else MIXTURES[name]
        pairs = []
        for rho in np.geomspace(1e-6, 1e4, 25).tolist():
            plan = mi._alphabet_plan(means * math.sqrt(rho), priors)
            var = unit_var(plan, 0.5)
            pairs.append((rho, mi._rate_nats(plan, var, order), unstacked_rate_nats(plan, var, order)))
        self.assert_same_bits(pairs)

    def test_stacks_only_1d_classes_that_share_a_rule(self):
        # A pass is a run of consecutive classes with one stabilizer, of at
        # most 2^15 // (n cap^d) classes: 32 for 4 points and 25 for 5 in
        # 1-D, and 1 in 2-D, where 192^2 alone exceeds 2^15.
        def passes(name):
            means, priors = MIXTURES[name]
            return [(len(p.weights), p.maps) for p in mi._alphabet_plan(means, priors).passes]

        assert passes("1d-4ask") == passes("1d-cocktail-4pam") == [(2, ())]
        assert passes("1d-random-1") == [(5, ())]
        plan = mi._alphabet_plan(*self.INTERLEAVED)
        # Each class by its representative, the component of zero offset.
        reps = [[int(np.flatnonzero(~rows.any(axis=1))[0]) for rows in p.delta] for p in plan.passes]
        assert reps == [[0], [1], [3]]
        # The point on the centroid has the mirror (map 1) for stabilizer.
        assert passes("1d-with-origin") == [(1, ()), (1, (1,))]
        # The corner and inner classes of 16qam-rings, 16-QAM with priors
        # that are no product, share the swap of the axes, but a 2-D class
        # is its own pass.
        qam = passes("16qam-rings")
        assert [n for n, _ in qam] == [1, 1, 1] and qam[0][1] == qam[2][1] != qam[1][1]

    # A 1-D alphabet of more than 64 points runs one class per pass, so its
    # work buffers grow with n, not with n^2.
    LARGE = (_column(np.random.default_rng(30).uniform(-1.0, 1.0, 300)), np.full(300, 1.0 / 300))

    @pytest.mark.parametrize("order", [8, 256])
    def test_large_1d_alphabet_runs_one_class_per_pass(self, order):
        plan = mi._alphabet_plan(*self.LARGE)
        assert [len(p.weights) for p in plan.passes] == [1] * 300
        pairs = []
        for rho in (1e-3, 1.0, 100.0):
            plan = mi._alphabet_plan(self.LARGE[0] * math.sqrt(rho), self.LARGE[1])
            var = unit_var(plan, 0.5)
            pairs.append((rho, mi._rate_nats(plan, var, order), unstacked_rate_nats(plan, var, order)))
        self.assert_same_bits(pairs)

    def test_large_1d_call_stays_within_2_mb(self):
        # One call at order 256 on a built plan. One pass of all 256 classes
        # would hold (256 x 256 x 116) floats, 61 MB; one class per pass
        # peaks at 0.48 MB.
        c = Constellation(np.random.default_rng(256).uniform(-1.0, 1.0, 256))
        c._plan  # built before the trace starts
        tracemalloc.start()
        try:
            constellation_mi(c, NoiseModel(0.1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_threads_give_serial_bits(self):
        # Each call keeps its own buffers, so calls from several threads at
        # once return what one thread does. A short switch interval makes
        # the threads take turns inside the calls.
        rhos = np.geomspace(1e-4, 1e3, 200).tolist()
        noise = NoiseModel(0.5)

        def work(_=None):
            return [(scheme_rate("4ask", r).hex(), bpsk_mi(math.sqrt(r), noise).hex()) for r in rhos]

        want = work()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(work, range(8), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert sum(g != want for g in got) == 0
