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
normals only: its density is even in y, so y = A + sigma n has the law of
y = x + sigma n with x uniform on {+A, -A}. Normals come block by block
from ``Generator.standard_normal`` (ziggurat), scaled by the noise standard
deviation; golden tests pin these choices.

Execution: :func:`run_link` runs its shards on ``max_workers`` threads, at
most one per core the process may use, and :func:`mc_bpsk_mi` on every such
core. A shard walks its range in blocks of at most ``_BLOCK`` elements, in
ascending order: each block draws its normals and runs the float arithmetic
in block-sized buffers that stay in cache, and returns its sums. Lookups in
tables built from :func:`cbpsk.cocktail.encode` give the transmitted
values, amplitudes and stage-2 offsets. Counts add as Python ints, and the
float sums of all blocks of all shards are added exactly rounded
(``math.fsum``), so the result depends on neither the worker count nor the
order in which shards finish. No sum goes through BLAS, so the BLAS thread
count does not move a bit either. A worker peaks at about 5 MB in
``run_link`` and 1 MB in ``mc_bpsk_mi``.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cocktail import CocktailParams, SymbolPair, encode
from .mi import LOG2E, NoiseModel, _LN2, _integer, _real, noise_entropy

__all__ = [
    "SimConfig",
    "LinkSimReport",
    "run_link",
    "mc_bpsk_mi",
]

DETECTION_MODES = ("decision_directed", "genie_aided")

_SHARD_SYMBOLS = 1 << 20
# Elements per block of a shard's arithmetic: the eight block buffers of
# run_link (1.6 MB) fit in a 2 MB per-core L2 cache. On 2 vCPUs, 1 << 14 ran
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

    It starts min(max_workers, shards, available cores) workers: a worker
    beyond the core count adds its memory but no speed.
    """
    counts = [min(_SHARD_SYMBOLS, n - start) for start in range(0, n, _SHARD_SYMBOLS)]
    workers = max(1, min(max_workers, len(counts), _available_cores()))

    def shard(i):
        return draw(_shard_rng(seed, i), counts[i])

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            shards = list(pool.map(shard, range(len(counts))))
    else:
        shards = [shard(i) for i in range(len(counts))]
    columns = zip(*(sums for blocks in shards for sums in blocks))
    return tuple(sum(c) if isinstance(c[0], int) else math.fsum(c) for c in columns)


def _each_block(count: int, block) -> list:
    """``block(lo, hi)`` over the blocks of [0, count), at most ``_BLOCK``
    long, in ascending order."""
    return [block(lo, min(lo + _BLOCK, count)) for lo in range(0, count, _BLOCK)]


def _block_buffers(count: int, floats: int, masks: int) -> list:
    """``floats`` float64 and ``masks`` bool buffers, long enough for any
    block of a ``count``-element shard."""
    m = min(count, _BLOCK)
    return [np.empty(m) for _ in range(floats)] + [np.empty(m, np.bool_) for _ in range(masks)]


def _random_bits(rng: np.random.Generator, n: int) -> np.ndarray:
    """n fair bits, as bool: the bits of ``rng.bit_generator.random_raw(
    ceil(n / 64))``, least significant first within each 64-bit word, words
    in draw order. The generator is left as that call leaves it."""
    raw = rng.bit_generator.random_raw(-(-n // 64)).astype("<u8", copy=False)
    return np.unpackbits(raw.view(np.uint8), bitorder="little")[:n].view(np.bool_)


def _bpsk_mixture_neg_log2_pdf(y, amplitude, variance: float, out, tmp1, tmp2) -> np.ndarray:
    """-log2 of 0.5*N(y; a, var) + 0.5*N(y; -a, var), elementwise in (y, a)
    for a >= 0, written into ``out`` and returned; ``tmp1`` and ``tmp2`` are
    scratch. None of the three may alias ``y`` or ``amplitude``.

    The density is even in y; factoring out the nearer component,

        -ln p = (|y| - a)^2 / (2 var) - log1p(exp(-2 a |y| / var))
                + ln 2 + ln(2 pi var) / 2,

    where the log1p term lies in [-ln 2, 0] and no two large terms cancel.
    One ufunc call per operation, in this order, so the bits do not depend
    on the buffers.
    """
    t, e = tmp1, tmp2
    np.abs(y, out=t)
    np.multiply(t, amplitude, out=e)
    np.multiply(e, -2.0 / variance, out=e)
    np.exp(e, out=e)
    np.log1p(e, out=e)
    np.subtract(t, amplitude, out=t)
    np.multiply(t, t, out=t)
    np.multiply(t, 0.5 / variance, out=t)
    np.subtract(t, e, out=out)
    np.add(out, _LN2 + 0.5 * math.log(2.0 * math.pi * variance), out=out)
    return np.multiply(out, LOG2E, out=out)


def _run_shard(config: SimConfig, rng: np.random.Generator, count: int) -> tuple:
    p = config.params
    var = config.noise.variance / 2.0
    sigma = math.sqrt(var)
    genie = config.detection_mode == "genie_aided"

    # The draw order (the raw bits of both streams, then the normals) is part
    # of the seed contract. x1 takes the first count bits and x2 the next
    # count; the normals, drawn last, may come block by block.
    bits = _random_bits(rng, 2 * count)
    plus1, plus2 = bits[:count], bits[count:]
    # Tables indexed by k = 2 [x1 = +1] + [x2 = +1]. Stage 1 sees the sent
    # value with amplitude |sent|; stage 2 subtracts the offset beta * x1 and
    # sees amplitude |sent - beta * x1|.
    pairs = [SymbolPair(x1, x2) for x1 in (-1, 1) for x2 in (-1, 1)]
    sent = np.array([encode(pair, p) for pair in pairs])
    genie_offset = np.array([p.beta * pair.x1 for pair in pairs])
    amp1 = np.abs(sent)
    amp2 = np.abs(sent - genie_offset)
    # Decision-directed mode indexes the offset by [x1_hat = +1], which picks
    # the entries k = 0 and k = 2.
    offset = genie_offset if genie else genie_offset[::2]
    # Every index is in range, so mode="clip" only skips the buffered bounds
    # check of the default mode. Received signal, amplitude, -log2 p, two
    # scratch; k; a decision is +1, scratch.
    buffers = _block_buffers(count, 5, 2)
    index = np.empty(min(count, _BLOCK), np.intp)

    def block(lo, hi):
        y, amp, z, tmp1, tmp2, hat, mask = (b[: hi - lo] for b in buffers)
        k = index[: hi - lo]
        x1, x2 = plus1[lo:hi], plus2[lo:hi]
        np.multiply(x1, 2, out=k)
        np.add(k, x2, out=k)

        # y1 = x + sigma n
        rng.standard_normal(out=y)
        y *= sigma
        y += np.take(sent, k, out=z, mode="clip")

        np.greater_equal(y, 0.0, out=hat)  # x1_hat
        errors_x1 = int(np.count_nonzero(np.not_equal(hat, x1, out=mask)))
        np.take(amp1, k, out=amp, mode="clip")
        sum_z1 = float(_bpsk_mixture_neg_log2_pdf(y, amp, var, z, tmp1, tmp2).sum())

        # y2 = y1 - beta * (x1 if genie else x1_hat), in place
        y -= np.take(offset, k if genie else hat, out=z, mode="clip")

        np.greater_equal(y, 0.0, out=hat)  # x2_hat
        errors_x2 = int(np.count_nonzero(np.not_equal(hat, x2, out=mask)))
        np.take(amp2, k, out=amp, mode="clip")
        sum_z2 = float(_bpsk_mixture_neg_log2_pdf(y, amp, var, z, tmp1, tmp2).sum())

        case1 = hi - lo - int(np.count_nonzero(np.not_equal(x1, x2, out=mask)))
        return errors_x1, errors_x2, case1, sum_z1, sum_z2

    return _each_block(count, block)


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
    err1, err2, case1, sum_z1, sum_z2 = _sharded_sums(
        n,
        config.seed,
        lambda rng, count: _run_shard(config, rng, count),
        max_workers,
    )
    h_n = noise_entropy(NoiseModel(config.noise.variance / 2.0))
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

    Draws y = amplitude + sigma n with n standard normal and sigma^2 =
    ``noise.variance / 2``, the variance of one real dimension, as in
    :func:`cbpsk.mi.bpsk_mi`, and estimates H(Y)
    as the sample mean of -log2 p(y) under the exact two-Gaussian mixture
    density; the estimate is that mean minus the noise entropy. No symbol is
    drawn: -log2 p is even in y, so -log2 p(A + sigma n) has the law of
    -log2 p(x + sigma n) with x uniform on {+A, -A}. The standard error
    comes from the sample variance of -log2 p(y). This is the independent
    oracle for the quadrature kernel. The draw is sharded like
    :func:`run_link`, normals only and block by block, and runs on every
    available core; the result depends only on (amplitude, noise,
    n_samples, seed), not on the number of cores or BLAS threads. ``seed``,
    as in :class:`SimConfig`, is an integer in [0, 2**64).
    """
    amplitude = _real("amplitude", amplitude, at_least=0.0)
    n_samples = _integer("n_samples", n_samples, 10_000)  # fewer make no usable estimate
    seed = _integer("seed", seed, 0, 2**64)
    var = noise.variance / 2.0
    sigma = math.sqrt(var)

    def draw(rng, count):
        buffers = _block_buffers(count, 4, 0)

        def block(lo, hi):
            y, z, tmp1, tmp2 = (b[: hi - lo] for b in buffers)
            rng.standard_normal(out=y)
            y *= sigma
            y += amplitude
            _bpsk_mixture_neg_log2_pdf(y, amplitude, var, z, tmp1, tmp2)
            # Sum of squares by numpy's pairwise sum: np.dot would go through
            # BLAS, whose summation order depends on its thread count.
            return float(z.sum()), float(np.multiply(z, z, out=tmp1).sum())

        return _each_block(count, block)

    total, total_sq = _sharded_sums(n_samples, seed, draw, _available_cores())
    mean = total / n_samples
    sample_var = max(0.0, (total_sq - n_samples * mean * mean) / (n_samples - 1))
    return mean - noise_entropy(NoiseModel(var)), math.sqrt(sample_var / n_samples)
