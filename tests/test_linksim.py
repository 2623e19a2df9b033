"""Tests for the Monte Carlo link simulator and the plug-in MI oracle."""

import math
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from cbpsk import linksim
from cbpsk.cocktail import CocktailParams, adr_breakdown
from cbpsk.linksim import LinkSimReport, SimConfig, mc_bpsk_mi, run_link
from cbpsk.mi import NoiseModel, bpsk_mi

# Three-shard goldens, 2.5e6 draws: two full 2**20 shards and a partial third,
# at noise variance 0.5 (run_link) and 1 (mc_bpsk_mi) per real dimension.
GOLDEN_REPORT = LinkSimReport(
    n_symbols=2_500_000,
    errors_x1=299976,
    errors_x2=577476,
    case1_count=1249888,
    empirical_mi_x1=0.6449996570383013,
    empirical_mi_x2=0.4580209752343489,
    seed=9,
)
GOLDEN_MC = (0.4858027067692633, 0.0005535039720593858)


def qfunc(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


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

    def test_numpy_integers_stored_as_int(self):
        cfg = make_config(n_symbols=np.int64(12_345), seed=np.uint64(77))
        assert type(cfg.n_symbols) is int and type(cfg.seed) is int
        assert cfg == make_config(n_symbols=12_345, seed=77)
        assert run_link(cfg) == run_link(make_config(n_symbols=12_345, seed=77))

    @pytest.mark.parametrize("field", ["n_symbols", "seed"])
    @pytest.mark.parametrize("bad", [True, np.True_, 1.0, np.float64(3.0)])
    def test_non_integers_rejected(self, field, bad):
        with pytest.raises(ValueError, match=field):
            make_config(**{field: bad})


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
        # Both modes: the genie stage-2 sum is the one whose last digit a
        # change of the block merge is most likely to move.
        for mode in ("decision_directed", "genie_aided"):
            cfg = make_config(n_symbols=3_000_000, seed=31, detection_mode=mode)
            assert run_link(cfg, max_workers=1) == run_link(cfg, max_workers=4), mode

    @pytest.mark.parametrize("workers", [1, 3])
    def test_three_shard_golden_report(self, workers):
        cfg = make_config(noise=NoiseModel(1.0), n_symbols=2_500_000, seed=9)
        assert run_link(cfg, max_workers=workers) == GOLDEN_REPORT

    def test_workers_capped_at_available_cores(self, monkeypatch):
        # A worker beyond the core count adds memory but no speed; on one
        # core, eight requested workers must run as one.
        threads = set()
        run_shard = linksim._run_shard

        def recording(*args):
            threads.add(threading.get_ident())
            return run_shard(*args)

        monkeypatch.setattr(linksim, "_available_cores", lambda: 1)
        monkeypatch.setattr(linksim, "_run_shard", recording)
        cfg = make_config(noise=NoiseModel(1.0), n_symbols=2_500_000, seed=9)
        assert run_link(cfg, max_workers=8) == GOLDEN_REPORT
        assert len(threads) == 1

    def test_without_sched_getaffinity(self, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity; the core count
        # falls back to os.cpu_count(), and the bits do not move.
        monkeypatch.delattr(os, "sched_getaffinity")
        cfg = make_config(noise=NoiseModel(1.0), n_symbols=2_500_000, seed=9)
        assert run_link(cfg, max_workers=3) == GOLDEN_REPORT
        assert mc_bpsk_mi(1.0, NoiseModel(2.0), 2_500_000, seed=9) == GOLDEN_MC

    @pytest.mark.parametrize("mode", ["decision_directed", "genie_aided"])
    def test_buffer_reuse_leaks_no_state(self, mode):
        big = make_config(noise=NoiseModel(0.5), n_symbols=2_500_000, seed=9, detection_mode=mode)
        first = run_link(big, max_workers=2)
        run_link(make_config(n_symbols=50_000, seed=3, detection_mode=mode), max_workers=2)
        assert run_link(big, max_workers=2) == first

    def test_concurrent_calls_match_sequential(self):
        configs = [
            make_config(noise=NoiseModel(0.5), n_symbols=2_500_000, seed=9),
            make_config(n_symbols=2_200_000, seed=4, detection_mode="genie_aided"),
        ]
        sequential = [run_link(c, max_workers=3) for c in configs]
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(run_link, c, 3) for c in configs]
            concurrent = [f.result(timeout=120) for f in futures]
        assert concurrent == sequential

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
        # sigma is the noise deviation on the one real dimension the scheme uses.
        p = CocktailParams(3.5, 1.0)
        sigma = 1.0
        n = 500_000
        report = run_link(
            make_config(
                params=p, noise=NoiseModel(2.0 * sigma**2), n_symbols=n, seed=17, detection_mode="genie_aided"
            )
        )
        expected = 0.5 * qfunc((p.alpha - p.beta) / sigma) + 0.5 * qfunc(p.beta / 2.0 / sigma)
        observed = report.errors_x2 / n
        tol = 3.0 * math.sqrt(expected * (1 - expected) / n)
        assert abs(observed - expected) < tol

    def test_empirical_mi_matches_kernel_in_genie_mode(self):
        # The simulator and the rate formula at one NoiseModel agree within
        # 4.5 standard errors, on a fixed seed.
        p = CocktailParams(3.5, 1.0)
        noise = NoiseModel(1.0)
        n = 1_000_000
        report = run_link(make_config(params=p, noise=noise, n_symbols=n, seed=12, detection_mode="genie_aided"))
        adr = adr_breakdown(p, noise)

        def stderr(amp_a, amp_b):
            # A stream sees amplitude amp_a or amp_b with probability 1/2, so
            # the per-symbol variance of -log2 p(y) is the case-averaged
            # variance of each antipodal component (from mc_bpsk_mi at 1e5
            # samples) plus the spread of the case means.
            n_var = 100_000
            parts = []
            for amp in (amp_a, amp_b):
                _, se = mc_bpsk_mi(amp, noise, n_var, 0)
                parts.append((se * se * n_var, bpsk_mi(amp, noise)))
            var = 0.5 * (parts[0][0] + parts[1][0]) + 0.25 * (parts[0][1] - parts[1][1]) ** 2
            return math.sqrt(var / n)

        z1 = (report.empirical_mi_x1 - adr.r1) / stderr(p.alpha, p.beta / 2)
        z2 = (report.empirical_mi_x2 - adr.r2) / stderr(p.alpha - p.beta, p.beta / 2)
        assert abs(z1) <= 4.5 and abs(z2) <= 4.5, (z1, z2)


class TestMcBpskMi:
    def test_requires_enough_samples(self):
        with pytest.raises(ValueError):
            mc_bpsk_mi(1.0, NoiseModel(1.0), 100, seed=0)

    def test_requires_integral_samples(self):
        for bad in (1e5, 20_000.0, "20000"):
            with pytest.raises(ValueError, match="n_samples"):
                mc_bpsk_mi(1.0, NoiseModel(1.0), bad, seed=0)
        noise = NoiseModel(1.0)
        assert mc_bpsk_mi(1.0, noise, np.int64(50_000), seed=9) == mc_bpsk_mi(1.0, noise, 50_000, seed=9)

    def test_zero_amplitude_estimates_zero(self):
        est, se = mc_bpsk_mi(0.0, NoiseModel(1.0), 200_000, seed=4)
        assert abs(est) <= 3.0 * se

    def test_saturation_estimates_one(self):
        est, se = mc_bpsk_mi(10.0, NoiseModel(1.0), 200_000, seed=4)
        assert abs(est - 1.0) <= 3.0 * se

    def test_agrees_with_quadrature(self):
        est, se = mc_bpsk_mi(1.0, NoiseModel(1.0), 1_000_000, seed=21)
        assert abs(est - bpsk_mi(1.0, NoiseModel(1.0))) <= 3.0 * se

    @pytest.mark.parametrize("amplitude", [np.int64(1), np.float32(1.0), np.float64(1.0), 1])
    def test_numpy_amplitudes_match_float(self, amplitude):
        noise = NoiseModel(1.0)
        expected = mc_bpsk_mi(1.0, noise, 50_000, seed=9)
        assert mc_bpsk_mi(amplitude, noise, 50_000, seed=np.int64(9)) == expected

    def test_bools_and_negative_seeds_rejected(self):
        noise = NoiseModel(1.0)
        for kwargs in ({"amplitude": True}, {"amplitude": np.True_}, {"seed": True}, {"seed": -1}):
            args = {"amplitude": 1.0, "noise": noise, "n_samples": 50_000, "seed": 9, **kwargs}
            with pytest.raises(ValueError, match=next(iter(kwargs))):
                mc_bpsk_mi(**args)
        with pytest.raises(ValueError, match="n_samples"):
            mc_bpsk_mi(1.0, noise, True, seed=9)

    def test_deterministic(self):
        assert mc_bpsk_mi(1.0, NoiseModel(1.0), 50_000, seed=9) == mc_bpsk_mi(
            1.0, NoiseModel(1.0), 50_000, seed=9
        )

    def test_three_shard_golden_estimate(self):
        assert mc_bpsk_mi(1.0, NoiseModel(2.0), 2_500_000, seed=9) == GOLDEN_MC

    def test_core_count_does_not_change_result(self, monkeypatch):
        # Five shards, so on three cores two workers run two shards each.
        results = []
        for cores in (1, 3):
            monkeypatch.setattr(linksim, "_available_cores", lambda cores=cores: cores)
            results.append(mc_bpsk_mi(0.7, NoiseModel(0.5), 4_500_000, seed=12))
        assert results[0] == results[1]

    def test_buffer_reuse_leaks_no_state(self):
        first = mc_bpsk_mi(1.0, NoiseModel(1.0), 2_500_000, seed=9)
        mc_bpsk_mi(2.0, NoiseModel(0.5), 50_000, seed=3)
        assert mc_bpsk_mi(1.0, NoiseModel(1.0), 2_500_000, seed=9) == first

    def test_standard_error_shrinks(self):
        _, se_small = mc_bpsk_mi(1.0, NoiseModel(1.0), 20_000, seed=3)
        _, se_big = mc_bpsk_mi(1.0, NoiseModel(1.0), 320_000, seed=3)
        assert se_big < se_small / 3.0


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_block_sums_add_exactly(monkeypatch, workers):
    # Blocks summing to 1e16, 1 and -1e16 give exactly 1 per shard; a plain
    # left-to-right sum loses the 1 to rounding and gives 0. Counts stay ints.
    monkeypatch.setattr(linksim, "_available_cores", lambda: 3)
    shards = 3
    blocks = [(10**16, 1e16), (1, 1.0), (-(10**16), -1e16)]
    assert sum(b[1] for b in blocks) == 0.0
    totals = linksim._sharded_sums(shards * linksim._SHARD_SYMBOLS, 0, lambda rng, count: blocks, workers)
    assert totals == (shards, float(shards))
    assert type(totals[0]) is int


def test_peak_memory_per_worker(monkeypatch):
    # Block-sized float buffers: at 2.5e6 draws a worker holds its shard's
    # symbol bits (run_link only) and a few cache-sized blocks, not
    # whole-shard float arrays (56 and 52 MB with those).
    monkeypatch.setattr(linksim, "_available_cores", lambda: 1)
    cfg = make_config(noise=NoiseModel(1.0), n_symbols=2_500_000, seed=9)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = run_link(cfg)
        link_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        estimate = mc_bpsk_mi(1.0, NoiseModel(2.0), 2_500_000, seed=9)
        mc_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert report == GOLDEN_REPORT and estimate == GOLDEN_MC
    assert link_peak < 16e6
    assert mc_peak < 8e6


_GOLDENS_SCRIPT = """
from cbpsk.cocktail import CocktailParams
from cbpsk.linksim import SimConfig, mc_bpsk_mi, run_link
from cbpsk.mi import NoiseModel
cfg = SimConfig(CocktailParams(3.5, 1.0), NoiseModel(1.0), 2_500_000, 9)
print(repr(run_link(cfg, max_workers=3)))
print(repr(mc_bpsk_mi(1.0, NoiseModel(2.0), 2_500_000, seed=9)))
"""


def test_goldens_do_not_depend_on_blas_threads():
    # A sum routed through BLAS (np.dot) splits by thread and moves the
    # last bits with OPENBLAS_NUM_THREADS; every simulator sum must not.
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        child = subprocess.run(
            [sys.executable, "-c", _GOLDENS_SCRIPT], env=env, capture_output=True, text=True, timeout=120
        )
        assert child.returncode == 0, child.stderr
        outputs.append(child.stdout.splitlines())
    assert outputs[0] == outputs[1] == [repr(GOLDEN_REPORT), repr(GOLDEN_MC)]


@pytest.mark.parametrize("variance", [1e-3, 0.5, 10.0])
def test_mixture_density_against_mpmath(variance):
    # -ln p(y) - h(N) - (ln 2 - 1/2) of y = sigma (q + n) under
    # 0.5 N(y; q sigma, sigma^2) + 0.5 N(y; -q sigma, sigma^2), at 400 digits
    # (y exact), for separations q from 0 to 1e100 and the cap, each formed
    # from an amplitude q sqrt(variance) as run_link forms its means: draws
    # n on the sent lobe, at the decision boundary n = -q and on the far
    # lobe n = -2q - k. A form at the scale of y keeps only the digits of n
    # that y carries: about 8 at q = 1e8 and none from q = 1e16 on.
    import mpmath

    sd = math.sqrt(variance)
    rows = []
    for q in (0.0, 1e-4, 0.3, 1.0, 3.0, 10.0, 40.0, 1e8, 1e16, 1e100, linksim._MEAN_CAP):
        q = linksim._mean(q * sd, sd)
        for k in (-1.5, -0.5, 0.0, 0.5, 2.0):
            rows += [(q, k), (q, -2.0 * q - k)]
        rows.append((q, -q))
    mean = np.array([r[0] for r in rows])
    n = np.array([r[1] for r in rows])
    got = linksim._stage(mean, n, *_scratch(len(rows)))
    with mpmath.workdps(400):
        refs = []
        for q, d in rows:
            m = mpmath.mpf(q)
            y = m + mpmath.mpf(d)
            p = (mpmath.exp(-((y - m) ** 2) / 2) + mpmath.exp(-((y + m) ** 2) / 2)) / 2
            # p is the density times sqrt(2 pi); h(N) + ln 2 - 1/2 is
            # ln(2 pi) / 2 + ln 2 at sigma = 1.
            refs.append(float(-mpmath.log(p) - mpmath.log(2)))
    for (q, d), g, ref in zip(rows, got, refs):
        assert abs(g - ref) <= 2e-15 * max(1.0, abs(ref)), (q, d, g, ref)
    # Negative means, as run_link's tables hold them: the statistic at
    # (-q, -n) is the one at (q, n), to the bit.
    np.testing.assert_array_equal(linksim._stage(-mean, -n, *_scratch(len(rows))), got)
    # A scalar mean, as mc_bpsk_mi passes it, gives the same bits as the array.
    for q in sorted(set(mean)):
        rows = mean == q
        np.testing.assert_array_equal(linksim._stage(q, n[rows], *_scratch(rows.sum())), got[rows])
    # Capped means: past the cap the statistic is n^2 / 2 - 0 to the bit, and
    # the cap keeps its sign at any amplitude and deviation.
    sent = np.array([-1.5, -0.5, 0.0, 0.5, 2.0])
    capped = linksim._stage(linksim._MEAN_CAP, sent, *_scratch(len(sent)))
    np.testing.assert_array_equal(capped, sent * sent / 2)
    assert linksim._mean(1.7e308, 2.2e-162) == linksim._MEAN_CAP == -linksim._mean(-1e160, 1.0)
    assert linksim._mean(-3.0, 2.0) == -1.5


def _scratch(n):
    """The t, z and e buffers of linksim._stage for n draws."""
    return [np.empty(n) for _ in range(3)]


@pytest.mark.parametrize("n", [1, 63, 64, 65, linksim._BLOCK, (1 << 20) - 1, 1 << 20])
def test_random_bits_are_the_raw_words(n):
    # The symbol streams rest on this: the helper returns the bits of
    # random_raw(ceil(n / 64)), least significant first, and leaves the
    # generator where that call does. If numpy changes unpackbits or
    # random_raw, this fails here rather than through a golden.
    rng = linksim._shard_rng(5, 0)
    bits = linksim._random_bits(rng, n)
    twin = linksim._shard_rng(5, 0)
    raw = twin.bit_generator.random_raw(-(-n // 64))
    want = ((raw[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)).ravel()[:n]
    assert bits.dtype == np.bool_ and bits.shape == (n,)
    np.testing.assert_array_equal(bits, want.astype(bool))
    # The Philox state holds small integer arrays; repr shows every value.
    assert repr(rng.bit_generator.state) == repr(twin.bit_generator.state)
    assert rng.standard_normal(3).tolist() == twin.standard_normal(3).tolist()
