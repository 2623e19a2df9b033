"""Seeded Monte Carlo AWGN link simulator.

Serves two roles: an end-to-end check of the encode/detect chain (error
counts, case frequencies) and an independent plug-in oracle for the
quadrature mutual-information kernels.

Reproducibility contract: all randomness comes from numpy's Philox
generator, which is counter-based. A run is split into fixed-size shards of
2**20 symbols; shard i draws from ``SeedSequence(seed, spawn_key=(i,))``.
Within a shard the draw order is fixed. :func:`run_link` first takes both
symbol streams from one ``bit_generator.random_raw(ceil(2 count / 64))``
call, unpacked least significant bit first (x1 the first ``count`` bits, x2
the next ``count``), and then draws its normals. :func:`mc_bpsk_mi` draws
normals only: its statistic at (-q, -n) is the one at (q, n), so sending
+A alone has the law of x uniform on {+A, -A}. Normals come block by block
from ``Generator.standard_normal`` (ziggurat); golden tests pin these
choices.

One scale: every statistic is formed in units of the noise deviation
sigma = sqrt(variance / 2), rounded once by the package's deviation rule
(``cbpsk.mi._deviation``, which halves a variance below 2^-1021 at a scale
of 2^600, as :func:`cbpsk.mi.bpsk_mi` does), from a mean q = a / sigma and
the drawn n (:func:`_stage`), and the received value y = sigma (q + n)
itself is never formed. At full scale y would round sigma n away next to a
large a. Means are capped at
``cbpsk.mi._MEAN_CAP``, past which the statistic no longer moves, so
nothing overflows at any finite amplitude or accepted variance; the
quadrature kernel :func:`cbpsk.mi.bpsk_mi` caps its q there too.

Execution: every shard runs on a thread of one executor, a pool of one
when one worker is allowed. :func:`run_link` allows ``max_workers``
threads, at most one per core the process may use, and :func:`mc_bpsk_mi`
one per such core. One helper, ``_each_block``, walks a shard's range in
blocks of at most ``_BLOCK`` elements, in ascending order, and owns the
block buffers: one per dtype, allocated once per shard and handed to each
block sliced to its length, so they stay in cache. Each block draws its
normals, runs its arithmetic in those buffers and returns its sums. Lookups
in tables built from :func:`cbpsk.cocktail.encode` give each stage's signed
mean in noise deviations. Counts add as Python ints, and the float sums of
all blocks of all shards are added exactly rounded (``math.fsum``), so the
result depends on neither the worker count nor the order in which shards
finish. No sum goes through BLAS, so the BLAS thread count does not move a
bit either. A worker peaks at about 4 MB in ``run_link`` (its shard's
symbol bits and the block buffers) and 1 MB in ``mc_bpsk_mi``.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cocktail import CocktailParams, SymbolPair, encode
from .mi import LOG2E, NoiseModel, _LN2, _MEAN_CAP, _deviation, _integer, _real

__all__ = [
    "SimConfig",
    "LinkSimReport",
    "run_link",
    "mc_bpsk_mi",
]

DETECTION_MODES = ("decision_directed", "genie_aided")

_SHARD_SYMBOLS = 1 << 20
# Elements per block of a shard's arithmetic: the block buffers of run_link
# (1.6 MB) fit in a 2 MB per-core L2 cache. On 2 vCPUs, 1 << 14 ran
# two workers about 10 % slower (twice the GIL hand-offs per element) and
# 1 << 16 one worker about 6 % slower.
_BLOCK = 1 << 15


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
        n_symbols = _integer("n_symbols", self.n_symbols, 1)
        seed = _integer("seed", self.seed, 0, 2**64)
        if self.detection_mode not in DETECTION_MODES:
            raise ValueError(
                f"detection_mode must be one of {DETECTION_MODES}, got {self.detection_mode!r}"
            )
        object.__setattr__(self, "n_symbols", n_symbols)
        object.__setattr__(self, "seed", seed)


@dataclass(frozen=True)
class LinkSimReport:
    """Tallies of one simulation run.

    ``empirical_mi_x1``/``empirical_mi_x2`` are plug-in estimates of the
    per-stream terms of the ADR formula (:func:`cbpsk.cocktail.adr_breakdown`)
    on the simulated real channel: the sample mean of -log2 p(y) - h(N)
    under the two-Gaussian mixture conditioned on each symbol's case x1*x2,
    formed in noise deviations by :func:`_stage`. Stage 1's mixture sits at
    the sent value, stage 2's at the sent value less beta x1. The receiver
    never observes the case, so these check the formula's integral, not a
    rate the receiver can achieve. In
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


def _available_cores() -> int:
    # sched_getaffinity exists on Linux only; elsewhere count every core.
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sharded_sums(n: int, seed: int, draw, max_workers: int = 1) -> tuple:
    """Run ``draw(rng, count)`` on each shard of an n-draw run and add up
    the sum tuples it returns, one per block, elementwise: int columns as
    Python ints, float columns exactly rounded by ``math.fsum``. Neither
    ``max_workers`` nor the order in which shards finish moves a bit.

    Every shard runs on a pool of min(max_workers, shards, available cores)
    threads, one thread when that is 1: a worker beyond the core count adds
    its memory but no speed.
    """
    counts = [min(_SHARD_SYMBOLS, n - start) for start in range(0, n, _SHARD_SYMBOLS)]
    workers = max(1, min(max_workers, len(counts), _available_cores()))

    def shard(i):
        return draw(_shard_rng(seed, i), counts[i])

    with ThreadPoolExecutor(max_workers=workers) as pool:
        shards = list(pool.map(shard, range(len(counts))))
    columns = zip(*(sums for blocks in shards for sums in blocks))
    return tuple(sum(c) if isinstance(c[0], int) else math.fsum(c) for c in columns)


def _each_block(count: int, dtypes, block) -> list:
    """``block(lo, hi, views)`` over the blocks of [0, count), at most
    ``_BLOCK`` long, in ascending order. The shard's buffers, one per dtype
    in ``dtypes`` and ``min(count, _BLOCK)`` long, are allocated once here;
    ``views`` holds each of them sliced to the block."""
    buffers = [np.empty(min(count, _BLOCK), dtype) for dtype in dtypes]
    bounds = [(lo, min(lo + _BLOCK, count)) for lo in range(0, count, _BLOCK)]
    return [block(lo, hi, [b[: hi - lo] for b in buffers]) for lo, hi in bounds]


def _random_bits(rng: np.random.Generator, n: int) -> np.ndarray:
    """n fair bits, as bool: the bits of ``rng.bit_generator.random_raw(
    ceil(n / 64))``, least significant first within each 64-bit word, words
    in draw order. The generator is left as that call leaves it."""
    raw = rng.bit_generator.random_raw(-(-n // 64)).astype("<u8", copy=False)
    return np.unpackbits(raw.view(np.uint8), bitorder="little")[:n].view(np.bool_)


def _mean(value: float, sigma: float) -> float:
    """``value / sigma``, a mean in noise deviations, with its magnitude
    capped at ``cbpsk.mi._MEAN_CAP``, as :func:`cbpsk.mi.bpsk_mi` caps its
    q."""
    return math.copysign(min(abs(value) / sigma, _MEAN_CAP), value)


def _stage(mean, n, t, z, e) -> np.ndarray:
    """One detection stage in noise deviations: the sent point over sigma is
    ``mean`` (an array, or one float) and the draw is ``n``, so the received
    value over sigma is t = mean + n. Writes t into ``t`` and the per-draw
    statistic into ``z``, which it returns; ``e`` is scratch.

    Folding onto the nearer point of the two-point mixture, at distance r,

        -ln p(y) - h(N) = r^2 / 2 - log1p(exp(-2 |mean t|)) + ln 2 - 1/2,

    where r = n if mean and t share a sign and r = n + 2 mean if not. The
    statistic is the first two terms; the caller adds ln 2 - 1/2 to its
    mean. r is n plus mean - copysign(mean, t), which is exactly 0 or
    2 mean, so n keeps its digits at any SNR and no two large terms cancel
    on either lobe. One ufunc call per operation, in this order, so the
    bits do not depend on the buffers.
    """
    np.add(mean, n, out=t)
    np.copysign(mean, t, out=z)
    np.subtract(mean, z, out=z)
    np.add(z, n, out=z)  # r
    np.multiply(t, mean, out=e)
    np.abs(e, out=e)
    np.multiply(e, -2.0, out=e)
    np.exp(e, out=e)
    np.log1p(e, out=e)
    np.multiply(z, z, out=z)
    np.multiply(z, 0.5, out=z)
    return np.subtract(z, e, out=z)


def _bits(mean_statistic: float) -> float:
    """The plug-in rate, in bits, of a statistic of :func:`_stage` whose
    sample mean is ``mean_statistic``."""
    return (mean_statistic + (_LN2 - 0.5)) * LOG2E


def _run_shard(config: SimConfig, rng: np.random.Generator, count: int) -> tuple:
    p = config.params
    sigma = _deviation(config.noise.variance)
    genie = config.detection_mode == "genie_aided"

    # The draw order (the raw bits of both streams, then the normals) is part
    # of the seed contract. x1 takes the first count bits and x2 the next
    # count; the normals, drawn last, may come block by block.
    bits = _random_bits(rng, 2 * count)
    plus1, plus2 = bits[:count], bits[count:]
    # Signed means over sigma, indexed by k = 2 [x1 = +1] + [x2 = +1]: stage
    # 1 sees the sent value, stage 2 the sent value less beta x1.
    pairs = [SymbolPair(x1, x2) for x1 in (-1, 1) for x2 in (-1, 1)]
    sent = [encode(pair, p) for pair in pairs]
    means1 = np.array([_mean(s, sigma) for s in sent])
    means2 = np.array([_mean(s - p.beta * pair.x1, sigma) for s, pair in zip(sent, pairs)])
    # Stage 2 subtracts beta x1_hat: its draw is moved by beta (x1 - x1_hat)
    # / sigma, which is 2 beta / sigma times [x1 = +1] - [x1_hat = +1]. The
    # cap binds only where beta / 2 sigma > 2^498, where x1_hat is never wrong.
    step = _mean(2.0 * p.beta, sigma)
    # Every index is in range, so mode="clip" only skips the buffered bounds
    # check of the default mode. Draw, mean, received value, statistic,
    # scratch; decisions, scratch; k; the move of the draw.
    dtypes = [np.float64] * 5 + [np.bool_] * 2 + [np.intp, np.int8]

    def block(lo, hi, views):
        n, m, t, z, e, hat, mask, k, moved = views
        x1, x2 = plus1[lo:hi], plus2[lo:hi]
        np.multiply(x1, 2, out=k)
        np.add(k, x2, out=k)
        rng.standard_normal(out=n)

        def stage(means, truth):
            np.take(means, k, out=m, mode="clip")
            total = float(_stage(m, n, t, z, e).sum())
            np.greater_equal(t, 0.0, out=hat)
            return int(np.count_nonzero(np.not_equal(hat, truth, out=mask))), total

        errors_x1, sum_1 = stage(means1, x1)
        if not genie:
            d = np.subtract(x1.view(np.int8), hat.view(np.int8), out=moved)
            n += np.multiply(d, step, out=t)
        errors_x2, sum_2 = stage(means2, x2)
        case1 = hi - lo - int(np.count_nonzero(np.not_equal(x1, x2, out=mask)))
        return errors_x1, errors_x2, case1, sum_1, sum_2

    return _each_block(count, dtypes, block)


def run_link(config: SimConfig, max_workers: int = 1) -> LinkSimReport:
    """Simulate the full encode/AWGN/detect chain.

    Draws i.i.d. equiprobable symbol streams, applies the amplitude mapping,
    adds Gaussian noise of variance ``config.noise.variance / 2`` on the
    scheme's one real dimension, runs two-stage detection per
    ``detection_mode``, and tallies errors and case frequencies. Fully
    reproducible from the seed; the result does not depend on
    ``max_workers``. At most ``max_workers`` threads run the shards, and no
    more than there are shards or cores the process may use;
    ``max_workers`` must be an integer >= 1.
    """
    max_workers = _integer("max_workers", max_workers, 1)
    n = config.n_symbols
    err1, err2, case1, sum_1, sum_2 = _sharded_sums(
        n,
        config.seed,
        lambda rng, count: _run_shard(config, rng, count),
        max_workers,
    )
    return LinkSimReport(
        n_symbols=n,
        errors_x1=err1,
        errors_x2=err2,
        case1_count=case1,
        empirical_mi_x1=_bits(sum_1 / n),
        empirical_mi_x2=_bits(sum_2 / n),
        seed=config.seed,
    )


def mc_bpsk_mi(amplitude: float, noise: NoiseModel, n_samples: int, seed: int) -> tuple[float, float]:
    """Monte Carlo plug-in estimate of the antipodal-signaling mutual
    information, with its standard error.

    The channel is y = amplitude + sigma n with n standard normal and
    sigma^2 = ``noise.variance / 2``, the variance of one real dimension,
    as in :func:`cbpsk.mi.bpsk_mi`. In units of sigma the sent point is
    q = amplitude / sigma, capped at ``cbpsk.mi._MEAN_CAP`` as the kernel
    caps its q, so both read the same q at every input. The estimate is the
    sample mean of -log2 p(y) - h(N) under the exact two-Gaussian mixture,
    formed from q and n by :func:`_stage`; y is never formed. No symbol is
    drawn: the statistic at (-q, -n) is the one at (q, n), so sending +A
    alone has the law of x uniform on {+A, -A}. The standard error comes
    from the sample variance of the statistic. This is the independent
    oracle for the quadrature kernel. The draw is sharded like
    :func:`run_link`, normals only and block by block, and runs on every
    available core; the result depends only on (amplitude, noise,
    n_samples, seed), not on the number of cores or BLAS threads. ``seed``,
    as in :class:`SimConfig`, is an integer in [0, 2**64).
    """
    amplitude = _real("amplitude", amplitude, at_least=0.0)
    n_samples = _integer("n_samples", n_samples, 10_000)  # fewer make no usable estimate
    seed = _integer("seed", seed, 0, 2**64)
    q = _mean(amplitude, _deviation(noise.variance))

    def draw(rng, count):
        def block(lo, hi, views):
            n, t, z, e = views
            rng.standard_normal(out=n)
            _stage(q, n, t, z, e)
            # Sum of squares by numpy's pairwise sum: np.dot would go through
            # BLAS, whose summation order depends on its thread count.
            return float(z.sum()), float(np.multiply(z, z, out=e).sum())

        return _each_block(count, [np.float64] * 4, block)

    total, total_sq = _sharded_sums(n_samples, seed, draw, _available_cores())
    mean = total / n_samples
    sample_var = max(0.0, (total_sq - n_samples * mean * mean) / (n_samples - 1))
    return _bits(mean), math.sqrt(sample_var / n_samples) * LOG2E
