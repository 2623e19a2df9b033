"""Seeded Monte Carlo AWGN link simulator.

Serves two roles: an end-to-end check of the encode/detect chain (error
counts, case frequencies) and an independent plug-in oracle for the
quadrature mutual-information kernels.

Reproducibility contract: all randomness comes from numpy's Philox
generator, which is counter-based. A run is split into fixed-size shards of
2**20 symbols; shard i draws from ``SeedSequence(seed, spawn_key=(i,))``, so
the merged result is bit-identical no matter how many workers execute the
shards. Gaussian draws use ``Generator.standard_normal`` (ziggurat) scaled
by the noise standard deviation; golden tests pin this choice.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cocktail import CocktailParams
from .mi import NoiseModel, noise_entropy

__all__ = [
    "SimConfig",
    "LinkSimReport",
    "DETECTION_MODES",
    "run_link",
    "mc_bpsk_mi",
]

DETECTION_MODES = ("decision_directed", "genie_aided")

_SHARD_SYMBOLS = 1 << 20
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class SimConfig:
    """One simulation request.

    ``detection_mode`` selects how the second stage forms y2:
    "decision_directed" uses the stage-1 decision x1_hat, "genie_aided" uses
    the true x1 (the idealized error-free first stream).
    """

    params: CocktailParams
    noise: NoiseModel
    n_symbols: int
    seed: int
    detection_mode: str = "decision_directed"

    def __post_init__(self) -> None:
        if not isinstance(self.n_symbols, int) or self.n_symbols < 1:
            raise ValueError(f"n_symbols must be an integer >= 1, got {self.n_symbols!r}")
        if not isinstance(self.seed, int) or not (0 <= self.seed < 2**64):
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if self.detection_mode not in DETECTION_MODES:
            raise ValueError(
                f"detection_mode must be one of {DETECTION_MODES}, got {self.detection_mode!r}"
            )


@dataclass(frozen=True)
class LinkSimReport:
    """Tallies of one simulation run.

    ``empirical_mi_x1``/``empirical_mi_x2`` are plug-in estimates of the
    per-stream terms of the ADR formula (:func:`cbpsk.cocktail.adr_breakdown`)
    on the simulated real channel: the sample mean of -log2 p(y) under the
    two-Gaussian mixture conditioned on each symbol's case x1*x2, minus the
    noise entropy. The receiver never observes the case, so these check the
    formula's integral, not a rate the receiver can achieve. In
    decision-directed mode the stage-2 estimate absorbs whatever error
    propagation occurred.
    """

    n_symbols: int
    errors_x1: int
    errors_x2: int
    case1_count: int
    empirical_mi_x1: float
    empirical_mi_x2: float
    seed: int


def _shard_rng(seed: int, shard: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(shard,))))


def _sharded_sums(n: int, seed: int, draw, max_workers: int = 1) -> tuple:
    """Run ``draw(rng, count)`` on each shard of an n-draw run and sum the
    returned tuples elementwise, in shard order, so the result does not
    depend on ``max_workers``."""
    shards = [
        (i, min(_SHARD_SYMBOLS, n - i * _SHARD_SYMBOLS))
        for i in range((n + _SHARD_SYMBOLS - 1) // _SHARD_SYMBOLS)
    ]

    def run(shard):
        i, count = shard
        return draw(_shard_rng(seed, i), count)

    if max_workers > 1 and len(shards) > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            results = list(pool.map(run, shards))
    else:
        results = [run(sc) for sc in shards]
    return tuple(sum(column) for column in zip(*results))


def _bpsk_mixture_neg_log2_pdf(y: np.ndarray, amplitude: np.ndarray, variance: float) -> np.ndarray:
    """-log2 of 0.5*N(y; a, var) + 0.5*N(y; -a, var), elementwise in (y, a).

    Uses the identity p(y) = N(y; 0, var) * exp(-a^2/(2 var)) * cosh(a y / var)
    with log-cosh evaluated stably for any separation.
    """
    u = np.abs(amplitude * y) / variance
    log_cosh = u + np.log1p(np.exp(-2.0 * u)) - _LN2
    logp = -(y * y + amplitude * amplitude) / (2.0 * variance) + log_cosh
    logp -= 0.5 * math.log(2.0 * math.pi * variance)
    return -logp / _LN2


def _run_shard(config: SimConfig, rng: np.random.Generator, count: int) -> tuple:
    p = config.params
    var = config.noise.variance
    sigma = math.sqrt(var)

    x1 = np.where(rng.integers(0, 2, count) == 1, 1.0, -1.0)
    x2 = np.where(rng.integers(0, 2, count) == 1, 1.0, -1.0)
    case1 = x1 == x2

    x = np.where(case1, p.alpha * x1, 0.5 * p.beta * x1)
    y1 = x + sigma * rng.standard_normal(count)

    x1_hat = np.where(y1 >= 0.0, 1.0, -1.0)
    ref = x1 if config.detection_mode == "genie_aided" else x1_hat
    y2 = y1 - p.beta * ref
    x2_hat = np.where(y2 >= 0.0, 1.0, -1.0)

    amp1 = np.where(case1, p.alpha, 0.5 * p.beta)
    amp2 = np.where(case1, p.alpha - p.beta, 0.5 * p.beta)
    z1 = _bpsk_mixture_neg_log2_pdf(y1, amp1, var)
    z2 = _bpsk_mixture_neg_log2_pdf(y2, amp2, var)

    return (
        int(np.count_nonzero(x1_hat != x1)),
        int(np.count_nonzero(x2_hat != x2)),
        int(np.count_nonzero(case1)),
        float(z1.sum()),
        float(z2.sum()),
    )


def run_link(config: SimConfig, max_workers: int = 1) -> LinkSimReport:
    """Simulate the full encode/AWGN/detect chain.

    Draws i.i.d. equiprobable symbol streams, applies the amplitude mapping,
    adds Gaussian noise of the configured variance, runs two-stage detection
    per ``detection_mode``, and tallies errors and case frequencies. Fully
    reproducible from the seed; the result does not depend on
    ``max_workers``.
    """
    n = config.n_symbols
    err1, err2, case1, sum_z1, sum_z2 = _sharded_sums(
        n, config.seed, lambda rng, count: _run_shard(config, rng, count), max_workers
    )
    h_n = noise_entropy(config.noise)
    return LinkSimReport(
        n_symbols=n,
        errors_x1=err1,
        errors_x2=err2,
        case1_count=case1,
        empirical_mi_x1=sum_z1 / n - h_n,
        empirical_mi_x2=sum_z2 / n - h_n,
        seed=config.seed,
    )


def mc_bpsk_mi(amplitude: float, noise: NoiseModel, n_samples: int, seed: int) -> tuple[float, float]:
    """Monte Carlo plug-in estimate of the antipodal-signaling mutual
    information, with its standard error.

    Samples x uniformly from {+amplitude, -amplitude}, adds Gaussian noise,
    and estimates H(Y) as the sample mean of -log2 p(y) under the exact
    two-Gaussian mixture density; the estimate is that mean minus the noise
    entropy. The standard error comes from the sample variance of
    -log2 p(y). This is the independent oracle for the quadrature kernel.
    The draw is sharded like :func:`run_link`, so the result depends only
    on (amplitude, noise, n_samples, seed).
    """
    if not (isinstance(amplitude, (int, float)) and math.isfinite(amplitude) and amplitude >= 0):
        raise ValueError(f"amplitude must be finite and >= 0, got {amplitude!r}")
    if n_samples < 10_000:
        raise ValueError(f"n_samples must be >= 10000 for a usable estimate, got {n_samples}")
    var = noise.variance
    sigma = math.sqrt(var)

    def draw(rng, m):
        x = np.where(rng.integers(0, 2, m) == 1, amplitude, -amplitude)
        y = x + sigma * rng.standard_normal(m)
        z = _bpsk_mixture_neg_log2_pdf(y, x, var)
        return float(z.sum()), float(np.dot(z, z))

    total, total_sq = _sharded_sums(n_samples, seed, draw)
    mean = total / n_samples
    sample_var = max(0.0, (total_sq - n_samples * mean * mean) / (n_samples - 1))
    return mean - noise_entropy(noise), math.sqrt(sample_var / n_samples)
