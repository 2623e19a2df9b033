"""Mutual-information kernels for finite constellations over AWGN channels.

All rates are in bits. One rate kernel, :func:`_rate_nats`, serves 1-D and
2-D alphabets in :func:`constellation_mi`. It forms I(X; Y) = -sum_k p_k
E[L_k], L_k = log sum_j p_j p(y | m_j) / p(y | m_k) at y = m_k + n, by
Gauss-Hermite quadrature against each component, and no entropy: H(Y) -
H(N) subtracts two entropies of 1-2 bits, which leaves 2.5e-9 relative
error at SNR 1e-8. The exponent is affine in the noise sample, so a
component costs one small matrix product, and each orbit of the alphabet's
isometries (the rotations and reflections that carry it onto itself about
its centroid, prior for prior) is evaluated once, at one representative,
over the rule folded by the rule's symmetries that fix it. The orbits,
their offsets and their symmetries depend on the alphabet alone, so
each :class:`Constellation` finds them once, in its kernel plan
(:func:`_alphabet_plan`), and a call does only the work that depends on the
noise. The plan runs the classes in passes by one rule in either
dimension, runs of consecutive classes that share a folded rule within a
fixed buffer budget, and one matrix product forms each pass's exponents,
the constant term -|m_k - m_j|^2 / 2v included: the rule carries a row of
ones beside its node coordinates, so the product is affine in the node.
A 1-D pass of two points of prior 1/2 forms the one exponent that is not
0 and runs the antipodal integrand of :func:`bpsk_mi` on it, to the same
bits. A 2-D alphabet that is an axis-aligned product, QPSK or any square QAM,
is two independent channels over isotropic noise, so its plan holds the
1-D passes of its factors, and its rate is their sum.

Every plan holds its alphabet in one unit, a power of two 2^k, with k from
the largest magnitude of a live coordinate, so the unit coordinates lie in
(-1, 1). A call forms the noise variance per dimension in that unit once,
v 2^-2k floored at 2^-1020, and the choice of order, the low-SNR series
and the kernel all read that one value. A power of two scales exactly, so
a rate keeps its bits when the alphabet is scaled by 2^j and the noise by
4^j, wherever the variance stays a normal float; and every exponent the
kernel forms is finite at any noise level, so it has no overflow path.
The floor moves a rate only for an alphabet whose nearest pair lies closer
than about 1e-152 of its largest coordinate (9.9e-153 measured on
{0, d, 1}): at any wider spacing the rate is log2 M already at the floor.

Every kernel runs on one Gauss-Hermite rule, :func:`_unit_rule`: the
tensor-product rule pruned once, when it is built, to the nodes whose
normalised weight is above 1e-30: 116 of 256 nodes at order 256 in 1-D and
7556 of 36864 at order 192 in 2-D (a pruned multivariate Gauss-Hermite
rule; P. Jaeckel, "A note on multivariate Gauss-Hermite quadrature", 2005).
The integrand each kernel evaluates at a unit node t lies between ln p_min
and |t|^2 whatever the SNR, so the dropped nodes can move a rate by at most
2e-25 bits at any order, for priors down to e^-700. The rule keeps every
signed permutation of the axes, and a component's integrand keeps those
that fix the component (its stabilizer), so the rule is folded by them:
one node per orbit, weighted by the orbit's size. At order 192 that leaves
3813 nodes for a class on a diagonal and 3778 for 8-PSK, whose eight
points are one orbit under its rotations by pi / 4, represented by
(1, 0); 1-D alphabets fold only at a point on their centroid. The folded
rule moves a rate by summation order only. The grouping is exact for an exact rule, but the
tensor rule keeps only the signed axis maps, not the rotations by pi / 4,
so it moves 8-PSK by the difference of its axis and diagonal points' rule
errors (below).

The order of the rule is chosen per call, unless one is given. The
integrand is analytic, with its nearest singularities pi / (sqrt(2) D) from
the real axis, D the largest scaled separation |m_k - m_j| / sqrt(v), so at
low SNR a few nodes hold it. :func:`constellation_mi` takes the smallest
order of the ladder 8, 12, 16, 24, 32, 48, 64, 96, 128, 192 whose limit
covers s = D^2 (4 A^2 / v for {+A, -A}; 0.035 for order 8 up to 5.7 for
order 192), and above 5.7 the cap: order 256 in 1-D and 192 in 2-D. Each
limit is about 20 % below the first s at which the order leaves the cap by
more than 5e-16 bits on BPSK, the tightest alphabet measured. The cache of
rules holds every one the ladder can ask for, so a sweep builds each once.

:func:`bpsk_mi`, the antipodal rate every cocktail rate is built from, is
the kernel's two-point case, I = -E_n[log1p(expm1(u)/2)] / ln 2 in the
log-likelihood ratio u, written out for its per-call cost.

Measured accuracy, against 30-digit mpmath values. In 1-D (order 256),
:func:`bpsk_mi` errs by at most 9.3e-17 bits over s = A^2 / v = 1e-3..1 and
8.9e-13 relative over s = 1e-8..1e-3; above s = 1 the rule's own error
grows: -4.8e-13 bits at s = 4, -6.4e-11 at 8, -3.2e-10 at 13, and at most
3.6e-10 over s = 1..100. The general kernel is within 5e-16 bits of it on
{+A, -A}, and an adaptive-Simpson integrator over a truncated window,
provided as an independent cross-check, agrees with both to better than
1e-9 bits. At SNR 1e-8, 1e-6 and 1e-4, the rates of BPSK, 4-ASK, QPSK and
the cocktail 4-PAM at the default order are within 1.1e-12 relative (8.7e-13
for 4-ASK at 1e-8), and the worst in each decade from 1e-7 to 1e-2 (8
points a decade) is 5.2e-13, 1.6e-13, 3.4e-14, 1.4e-14 and 1.7e-14: there
rounding, not the rule, sets the error, and orders 192 and 256 gave 1.3e-13,
5.5e-14, 3.1e-14, 5.8e-15 and 1.6e-15. Over SNR 1e-8..1e4 the default order
is within 3.3e-16 bits of the cap on BPSK, 4-ASK, the cocktail 4-PAM, QPSK,
8-PSK and 16-QAM. QPSK runs as its 1-D rail, with the weight doubled
(:func:`_alphabet_plan`), so it carries twice the 1-D rule's error: within
7.2e-10 bits of its exact rate, two antipodal channels (-7.17e-10 at SNR
12.9, the worst of the 60-point grid SNR 1e-3..1e2 and of 121 points over
3..30), and within 6.7e-16 bits of 2 x :func:`bpsk_mi`. On the 2-D tensor
rule of order 192 it erred by up to 5.5e-9 bits, near SNR 12.8. In 2-D
(order 192 per dimension), QPSK turned by pi / 4, which is no axis product,
is within 6.0e-10 bits of 2 x the BPSK rate at half the SNR on that grid
(``cbpsk check``). 8-PSK, one
class summed as its axis point's term, is within 2.0e-12 bits of a 2-D
trapezoid-rule oracle (steps 0.06 and 0.07 agree to 8.9e-16 bits) over the
60-point grid SNR 1e-3..1e2: -2.0e-12 at SNR 7.9, -1.5e-12 at 9.6,
-3.3e-13 at 12.8, and at most 4e-15 below SNR 3.7 and above 20. With its
axis and diagonal points as two classes it erred by up to -1.8e-12 (at
7.9), since their rule errors partly cancelled. It differs from order 256
by at most 1.9e-12 bits there, and order 256 from the oracle by 1.1e-13.
8-PSK turned by 0.3 rad errs by at most 6.7e-13 bits below SNR 15, but by
up to 7.4e-11 at SNR 17..100: the rule's error depends on how the alphabet
lies on the axes.

Arguments follow two rules, here and in every module of the package. A
number is an int, float, numpy integer or numpy floating, but not bool,
and finite (:func:`_real`). An integer, such as a quadrature order, a count
or a seed, is an int or numpy integer, but not bool, within the argument's
bounds (:func:`_integer`). Either is used as the plain float or int, and
anything else raises ValueError naming the argument.

Alphabets follow one rule in :class:`Constellation` and the Simpson
cross-check: points (means) of shape (n,) or (n, d), d in {1, 2}, and n
priors >= 0 summing to 1 within 1e-12, every entry a finite number but not
bool.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from itertools import permutations, product
from typing import NamedTuple

import numpy as np

__all__ = [
    "NoiseModel",
    "Constellation",
    "noise_entropy",
    "awgn_capacity",
    "low_snr_capacity",
    "bpsk_mi",
    "constellation_mi",
    "gaussian_mixture_entropy_simpson",
]

LOG2E = math.log2(math.e)
_LN2 = math.log(2.0)
_SQRT2 = math.sqrt(2.0)
# At or below this s = q^2, bpsk_mi returns the series (s/2 - s^2/4 + s^3/6)
# / ln 2: the dropped terms are 5/12 s^3 relative (4e-25 here), while the
# quadrature loses about 1e-16 / q relative to rounding (7e-13 just above).
_SERIES_MAX_S = 1e-8
# Cap on a mean q = A / sigma in noise deviations, for bpsk_mi and for
# cbpsk.linksim (its _mean), so the kernel and its Monte Carlo oracle read
# the same q. bpsk_mi stops moving from q of about 10 on, and linksim's
# statistic from about 40. Below 2^500 their products stay finite at any
# amplitude and variance: 2q(q + sqrt(2) t) at every Hermite node in
# bpsk_mi, and 2qt and r^2 (r at most 2q plus a draw) in linksim's _stage.
_MEAN_CAP = 2.0**500

# numpy's hermgauss develops overflow (NaN weights) somewhere above order
# 256; 256 nodes already put the Hermite/Simpson discrepancy below 1e-9.
_MIN_ORDER = 8
_MAX_ORDER = 256
# Per-dimension cap of constellation_mi's default order, by the dimension of
# the kernel's rule (1 for an axis product, which runs as its factors): the
# 2-D tensor rule has order**2 nodes, so it stops at a lower order.
_DEFAULT_ORDER = {1: _MAX_ORDER, 2: 192}
# The ladder of default orders (module docstring): a call takes the first
# order whose limit is >= its s = max |m_k - m_j|^2 / v, v the variance per
# dimension, and the cap above every limit.
_LADDER_LIMITS = (0.035, 0.11, 0.22, 0.45, 0.64, 1.1, 1.6, 2.5, 3.6, 5.7)
_LADDER = {d: (8, 12, 16, 24, 32, 48, 64, 96, 128, 192, cap) for d, cap in _DEFAULT_ORDER.items()}
# The quadrature rule keeps only nodes whose normalised weight is above this;
# the bound on what the dropped ones carry is in _unit_rule.
_WEIGHT_FLOOR = 1e-30
# The least noise variance per dimension, in the unit of an alphabet's
# kernel plan, that constellation_mi passes on: it keeps every exponent of
# the kernel finite (_rate_nats), and moves no rate of an alphabet whose
# nearest pair lies farther apart than about 1e-152 of its largest
# coordinate (module docstring).
_UNIT_VAR_FLOOR = 2.0**-1020
# From this variance up half of it is a normal float, so halving is exact;
# below it an odd last bit would round away (_deviation).
_EXACT_HALF = 2.0**-1021
# The most (classes x components x nodes) entries one kernel pass may stack,
# counted on the unpruned rule of the cap: 256 KB of float64 (_alphabet_plan).
_PASS_ENTRIES = 1 << 15


def _deviation(variance: float) -> float:
    """sqrt(variance / 2), the noise deviation of one real dimension, rounded
    once: below ``_EXACT_HALF`` the half would round an odd last bit, so the
    variance is halved at a scale of 2^600, which keeps it a normal float."""
    if variance >= _EXACT_HALF:
        return math.sqrt(variance / 2.0)
    return math.sqrt(variance * 2.0**600 / 2.0) * 2.0**-300


def _is_integer(value) -> bool:
    """int or numpy integer, but not bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _real(name: str, value, *, above: float | None = None, at_least: float | None = None) -> float:
    """``value`` as a plain float, by the package's one rule for numbers: an
    int, float, numpy integer or numpy floating, but not bool, that is finite
    and > ``above`` and >= ``at_least`` where those are given. Anything else
    raises ValueError naming ``name``."""
    if type(value) is float:  # the common case skips the type tests
        x = value
    elif _is_integer(value) or isinstance(value, (float, np.floating)):
        try:
            x = float(value)
        except OverflowError:  # an int beyond the float range
            x = math.inf
    else:
        x = math.nan
    if math.isfinite(x) and (above is None or x > above) and (at_least is None or x >= at_least):
        return x
    bound = f" > {above:g}" if above is not None else f" >= {at_least:g}" if at_least is not None else ""
    raise ValueError(f"{name} must be a finite number{bound}, got {value!r}")


def _integer(name: str, value, at_least: int, below: int | None = None) -> int:
    """``value`` as a plain int, by the package's one rule for integers: an
    int or numpy integer, but not bool, that is >= ``at_least`` and <
    ``below`` where that is given. Anything else raises ValueError naming
    ``name`` and its bounds."""
    if _is_integer(value):
        n = int(value)
        if n >= at_least and (below is None or n < below):
            return n
    bound = f">= {at_least}" if below is None else f"in [{at_least}, {below})"
    raise ValueError(f"{name} must be an integer {bound}, got {value!r}")


def _alphabet_points(name: str, points) -> np.ndarray:
    """``points`` as a new read-only (n, d) float64 array, by the one rule for
    alphabets: n >= 1 entries, shape (n,) or (n, d) with d in {1, 2}, each a
    number by the rule of :func:`_real`. An ndarray is checked by its dtype,
    other input entry by entry, since numpy would turn a True beside a float
    into 1.0. Anything else raises ValueError naming ``name``."""
    arr = points
    if not isinstance(arr, np.ndarray):
        try:
            arr = np.array([[_real(name, c) for c in p] if isinstance(p, (tuple, list, np.ndarray))
                            else _real(name, p) for p in points])
        except (TypeError, ValueError):  # not iterable, an entry off the rule, or ragged
            arr = np.empty(0)
    arr = arr.astype(float) if arr.dtype.kind in "iuf" else np.empty(0)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    # Python on the list beats numpy's reductions on a few elements.
    if arr.ndim == 2 and arr.size and arr.shape[1] <= 2 and all(map(math.isfinite, arr.ravel().tolist())):
        arr.flags.writeable = False
        return arr
    raise ValueError(f"{name} must be a non-empty set of finite numbers, shape (n,), (n, 1) or (n, 2), got {points!r}")


def _alphabet_priors(priors, n: int) -> np.ndarray:
    """``priors`` as a float64 array by the one rule for the weights of an
    alphabet: ``n`` entries, one per point, each a number by the rule of
    :func:`_real`, >= 0 and summing to 1 within 1e-12; an ndarray is checked
    by its dtype. Anything else raises ValueError naming priors."""
    if isinstance(priors, np.ndarray):
        values = priors.tolist() if priors.dtype.kind in "iuf" and priors.shape == (n,) else []
    else:
        try:
            values = [_real("priors", w, at_least=0.0) for w in priors]
        except TypeError:  # not iterable
            values = []
    # Python's min and sum on the list cost a fraction of numpy's reductions
    # on a few elements; a nan or inf prior makes the sum fail the test.
    if len(values) == n and min(values) >= 0.0 and abs(sum(values) - 1.0) <= 1e-12:
        return np.array(values, dtype=float)
    raise ValueError(f"priors must be {n} numbers >= 0, one per point, summing to 1 within 1e-12, got {priors!r}")


@dataclass(frozen=True)
class NoiseModel:
    """Zero-mean additive white Gaussian noise of a given power.

    ``variance`` is the total noise power of a complex channel, and each real
    dimension carries ``variance / 2``, in every module of the package. It
    must be finite and above 5e-324, the least positive float, so that its
    half is above 0 as well. Every module forms that half exactly: the
    deviation sqrt(variance / 2) of one dimension (``_deviation``) halves a
    variance below 2^-1021, whose half is subnormal, at a scale of 2^600, and
    :func:`constellation_mi` halves only after scaling to its alphabet's unit.
    """

    variance: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "variance", _real("noise variance", self.variance, above=5e-324))


@dataclass(frozen=True)
class Constellation:
    """A finite symbol alphabet with prior probabilities.

    ``points``: n >= 2 pairwise distinct real scalars (1-D) or pairs of reals
    (2-D, the I/Q plane), as a sequence or an integer or floating array of
    shape (n,), (n, 1) or (n, 2). ``priors``: n weights >= 0 summing to 1
    within 1e-12 as a sequence or array, uniform when empty. Both follow the
    module's alphabet rule and are stored as tuples of plain floats (or pairs).
    """

    points: tuple
    priors: tuple = ()
    # The checked points as a read-only (n, d) array, for every method.
    _array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        arr = _alphabet_points("points", self.points)
        n, d = arr.shape
        pts = tuple(arr.ravel().tolist()) if d == 1 else tuple(map(tuple, arr.tolist()))
        if n < 2 or len(set(pts)) < n:
            raise ValueError(f"points must hold at least 2 pairwise distinct entries, got {self.points!r}")
        given = isinstance(self.priors, np.ndarray) or self.priors  # () and None mean uniform
        pri = _alphabet_priors(self.priors, n).tolist() if given else [1.0 / n] * n
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "priors", tuple(pri))
        object.__setattr__(self, "_array", arr)

    def __reduce__(self):  # copies and pickles rebuild the read-only array
        return Constellation, (self.points, self.priors)

    @cached_property
    def _plan(self) -> "_Plan":
        """The alphabet's :func:`_alphabet_plan`, built on the first rate call
        and kept: the one record :func:`constellation_mi` reads, for the
        kernel, the order and the low-SNR series alike. It is not a field,
        so equality, hashing, repr and pickles ignore it, and copies build
        their own."""
        return _alphabet_plan(self._array, self.priors)

    @property
    def dimension(self) -> int:
        return self._array.shape[1]

    def as_array(self) -> np.ndarray:
        """Points as a read-only (n, dimension) float array."""
        return self._array

    def mean_energy(self) -> float:
        """Prior-weighted mean symbol energy sum_k prior_k * |point_k|^2."""
        return float(np.dot(np.asarray(self.priors), np.sum(self._array * self._array, axis=1)))

    def scaled(self, amplitude_factor: float) -> "Constellation":
        """Scale every point by ``amplitude_factor`` (energy scales by its square)."""
        f = _real("amplitude_factor", amplitude_factor, above=0.0)
        with np.errstate(over="ignore"):  # an overflow to inf fails the rule for points
            return Constellation(self._array * f, self.priors)

    # Unit-average-energy alphabets used by the rate sweeps.

    @classmethod
    def bpsk(cls) -> "Constellation":
        return cls((1.0, -1.0))

    @classmethod
    def ask4(cls) -> "Constellation":
        s = math.sqrt(5.0)
        return cls((-3.0 / s, -1.0 / s, 1.0 / s, 3.0 / s))

    @classmethod
    def qpsk(cls) -> "Constellation":
        a = math.sqrt(0.5)
        return cls(((a, a), (-a, a), (-a, -a), (a, -a)))

    @classmethod
    def psk8(cls) -> "Constellation":
        pts = []
        for k in range(8):
            ang = k * math.pi / 4.0
            pts.append((math.cos(ang), math.sin(ang)))
        return cls(tuple(pts))


def noise_entropy(noise: NoiseModel) -> float:
    """Differential entropy log2(sqrt(2*pi*e*variance)), in bits, of a real
    Gaussian whose variance is ``noise.variance``: pass the variance of one
    real dimension to get the entropy of the noise on it.

    Negative for variances below 1/(2*pi*e).
    """
    return 0.5 * math.log2(2.0 * math.pi * math.e * noise.variance)


def awgn_capacity(snr_linear: float) -> float:
    """Shannon capacity log2(1 + snr) in bits/sec/Hz for a linear SNR >= 0,
    formed as log1p(snr) / ln 2, which does not cancel at low SNR."""
    return math.log1p(_real("snr_linear", snr_linear, at_least=0.0)) / _LN2


def low_snr_capacity(snr_linear: float) -> float:
    """First-order capacity approximation snr * log2(e).

    Valid only for snr << 1; it overshoots log2(1 + snr) elsewhere. From
    snr of about 1.246e308 on, the product passes the float range and reads
    inf, without a warning; every accepted snr below that reads a finite
    value.
    """
    return _real("snr_linear", snr_linear, at_least=0.0) * LOG2E


def _mixture_logpdf(y: np.ndarray, means: np.ndarray, priors: np.ndarray, var_per_dim: float) -> np.ndarray:
    """Natural log of sum_k prior_k * N(y; mean_k, var_per_dim * I).

    ``y`` has shape (m, d) and ``means`` (n, d). Stable log-sum-exp; a point
    infinitely far from every component returns -inf, which callers treat as
    zero density contribution.
    """
    d = means.shape[1]
    sq = np.sum((y[:, None, :] - means[None, :, :]) ** 2, axis=-1) / (2.0 * var_per_dim)
    with np.errstate(divide="ignore"):  # a zero prior legitimately logs to -inf
        logw = np.log(priors)
    a = logw[None, :] - sq
    m = np.max(a, axis=1)
    out = m + np.log(np.sum(np.exp(a - m[:, None]), axis=1))
    return out - 0.5 * d * math.log(2.0 * math.pi * var_per_dim)


class _Pass(NamedTuple):
    """One pass of the rate kernel: C classes of components that share a
    folded rule. ``maps`` is the stabilizer that selects the rule,
    ``weights`` the summed prior of each class, ``delta`` the offsets
    m_k - m_j of each class's representative k to the n live components of
    its alphabet, shape (C, n, d), and ``sq`` their squared lengths, shape
    (C, n, 1). ``priors`` are those components' priors, and ``log_ratio``
    the column ln(p_j / p_max), or None when every one of them is p_max.
    The arrays are read-only."""

    maps: tuple
    weights: tuple
    delta: np.ndarray
    sq: np.ndarray
    priors: np.ndarray
    log_ratio: np.ndarray | None


class _Plan(NamedTuple):
    """What :func:`constellation_mi` needs of an alphabet at any noise
    level (:func:`_alphabet_plan`), in units of a power of two: the
    kernel's ``passes``, the ``dimension`` of their rule, the numerator
    ``widest`` of the s that picks the default order, the low-SNR
    ``series``, and the ``factor`` that takes the alphabet's own units to
    the plan's."""

    passes: tuple
    dimension: int
    widest: float
    series: tuple | None
    factor: float


def _alphabet_plan(points: np.ndarray, priors) -> _Plan:
    """The :class:`_Plan` of the alphabet ``points`` (a checked (n, d)
    array) with ``priors`` (n checked weights). Everything in it refers to
    the live components, prior > 0, in one unit: 2^k, for the exponent k
    that :func:`math.frexp` gives the largest magnitude of a live
    coordinate, clamped at -1022. ``factor`` is 2^-k, so the unit
    coordinates lie in (-1, 1), the largest in [0.5, 1) unless k was
    clamped. A power of two scales exactly, so the plan holds the
    alphabet's offsets, traces and symmetry tolerance to the bit, and none
    of them overflows: in the alphabet's own units tr C^3 would overflow
    from energy 5.6e102 on, and |m_k - m_j|^2 from 4.5e307. The body is
    :func:`_unit_plan`.

    ``passes`` are the passes the kernel runs over the classes of
    :func:`_symmetry_classes` (:class:`_Pass`), and ``dimension`` is that
    of their offsets and rule. ``widest`` is the largest squared offset of
    the passes, since every representative holds its offset to every
    component. ``series`` is (tr C, tr C^2, tr C^3) of the prior-weighted
    covariance C of the live points when the symmetry search proves x ->
    2c - x, c the centroid, a symmetry of the alphabet, and None otherwise:
    the low-SNR series is taken from it.

    A 2-D alphabet that is an axis-aligned product (:func:`_axis_factors`),
    such as QPSK or any square QAM, is planned as its 1-D factors. Over
    isotropic noise its two coordinates are two independent channels, so
    its rate is the sum of its factors' rates (parallel Gaussian channels),
    and the passes of each factor's own 1-D plan, at the factor's marginal
    priors and in the alphabet's unit, are the passes of the alphabet. Two
    equal factors, as QPSK's two rails are, are one factor with its class
    weights doubled, which doubles its term exactly. A factor of one point carries no information
    and runs no pass. The dimension is then 1 and ``widest`` the widest
    offset of a factor, so the order comes from the 1-D ladder, whose rule
    at order n is the 2-D tensor rule of order n in each coordinate. The
    series stays that of the 2-D covariance, and the symmetry x -> 2c - x
    holds exactly when it holds for every factor.

    One rule makes the passes in every dimension: a pass is a run of
    consecutive classes, in the order of :func:`_symmetry_classes`, that
    share a stabilizer and so a rule. It holds as many as keep its
    (C, n, nodes) work buffer within ``_PASS_ENTRIES`` = 2^15 entries on
    the unpruned rule of the cap ``_DEFAULT_ORDER[d]``, and at least one:
    max(1, 2^15 // (n cap^d)), so no rule is built to find it. 4-ASK and
    the cocktail 4-PAM (limit 32) stack their two classes and make one
    sequence of numpy calls instead of two; their rows are a few hundred
    numbers, so numpy's per-call cost, not the arithmetic, is what a pass
    saves. Each 2-D class (limit 1 at every n, as 192^2 > 2^15), and each
    class of a 1-D alphabet of more than 64 live points, is its own pass,
    so the buffers grow with n, not with n^2. Runs, not all the classes of one
    stabilizer, keep the classes in their order, the order in which the
    kernel subtracts their terms. The arrays are read-only, because a
    :class:`Constellation` keeps its plan for every call.
    """
    pri = np.asarray(priors, dtype=float)
    live = pri > 0.0
    pts = points[live]
    factor = math.ldexp(1.0, -max(math.frexp(float(np.abs(pts).max()))[1], -1022))
    return _unit_plan(pts * factor, pri[live], factor)


def _unit_plan(pts: np.ndarray, pri: np.ndarray, factor: float) -> _Plan:
    """The :class:`_Plan` of the live components ``pts`` (n, d), already
    in the unit 1 / ``factor``, with priors ``pri``: the body of
    :func:`_alphabet_plan`, which the factors of an axis product share."""
    centred, tol = _centred(pts, pri)
    factors = _axis_factors(pts, pri, tol)
    if factors:
        plans = [(_unit_plan(values[:, None], marginal, factor), times) for values, marginal, times in factors]
        passes = tuple(
            p._replace(weights=tuple(times * w for w in p.weights)) for plan, times in plans for p in plan.passes
        )
        dimension, central = 1, all(plan.series is not None for plan, _ in plans)
    else:
        classes, central = _symmetry_classes(centred, pri, tol)
        passes, dimension = _class_passes(pts, pri, classes), pts.shape[1]
    series = None
    if central:
        cov = centred.T @ (centred * pri[:, None])
        square = cov @ cov
        series = float(np.trace(cov)), float(np.trace(square)), float(np.trace(square @ cov))
    widest = max(float(p.sq.max()) for p in passes)
    return _Plan(passes, dimension, widest, series, factor)


def _class_passes(pts: np.ndarray, pri: np.ndarray, classes: list) -> tuple:
    """The passes (:class:`_Pass`) of the live components ``pts`` (n, d)
    with priors ``pri`` over their symmetry ``classes``, by the rule of
    :func:`_alphabet_plan`."""
    log_ratio = np.log(pri / pri.max())
    pri.flags.writeable = log_ratio.flags.writeable = False
    log_ratio = log_ratio if log_ratio.any() else None
    limit = max(1, _PASS_ENTRIES // (len(pri) * _DEFAULT_ORDER[pts.shape[1]] ** pts.shape[1]))
    runs = []
    for k, weight, maps in classes:
        if not runs or runs[-1][0] != maps or len(runs[-1][1]) == limit:
            runs.append((maps, [], []))
        runs[-1][1].append(k)
        runs[-1][2].append(weight)
    passes = []
    for maps, reps, weights in runs:
        delta = pts[reps, None] - pts
        sq = np.sum(delta * delta, axis=2, keepdims=True)
        delta.flags.writeable = sq.flags.writeable = False
        passes.append(_Pass(maps, tuple(weights), delta, sq, pri, log_ratio))
    return tuple(passes)


def _axis_factors(pts: np.ndarray, pri: np.ndarray, tol: float) -> list:
    """The 1-D factors of the live 2-D points ``pts`` with priors ``pri``
    when they are an axis-aligned product, as (values, marginal priors,
    times) per factor of two points or more, ``times`` 2 for one factor that
    stands for both equal ones; an empty list otherwise, for a 1-D alphabet
    and for a single point.

    The distinct values of each coordinate are found within ``tol``, the
    symmetry tolerance of :func:`_centred`, each named by its least member.
    The points are a product when there are |X| |Y| of them, one in each
    cell of the grid, and each prior p times the prior sum S equals the
    product of its marginals to rounding: within 2 n eps relative, which
    is more than the n-term sums that form S and the marginals can
    round by."""
    n, d = pts.shape
    if d != 2 or n < 2:
        return []
    cells, margins = [], []
    for coord in pts.T:
        order = np.argsort(coord, kind="stable")
        first = np.diff(coord[order], prepend=-np.inf) > tol
        cell = np.empty(n, dtype=np.intp)
        cell[order] = np.cumsum(first) - 1
        cells.append(cell)
        margins.append((coord[order][first], np.bincount(cell, weights=pri)))
    (xs, px), (ys, py) = margins
    if xs.size * ys.size != n:
        return []
    joint = np.zeros((xs.size, ys.size))
    joint[cells[0], cells[1]] = pri * pri.sum()  # an empty cell stays 0
    product = np.multiply.outer(px, py)
    if not (np.abs(joint - product) <= 2 * n * np.finfo(float).eps * product).all():
        return []
    if np.array_equal(xs, ys) and np.array_equal(px, py):
        return [(xs, px, 2)]
    return [(values, marginal, 1) for values, marginal in margins if values.size > 1]


def _rate_nats(plan: _Plan, var: float, order: int) -> float:
    """Mutual information I(X; Y), in nats, of the alphabet whose
    :func:`_alphabet_plan` is ``plan`` over isotropic Gaussian noise of
    variance ``var`` per dimension in the plan's units (below), on the rule
    of checked ``order``.

    Given X = m_k, write Y = m_k + n with n = sqrt(2v) t, t a node of the
    d-dimensional rule of :func:`_unit_rule`. Then p(y | m_j) / p(y | m_k) =
    exp(u_kj) with the exponent affine in the node,

        u_kj = -sqrt(2/v) (m_k - m_j).t - |m_k - m_j|^2 / 2v,   u_kk = 0,

    one (n x (d + 1)) @ ((d + 1) x nodes) product per component: the rule's
    nodes come with a last row of ones (:func:`_unit_rule`), so the
    offsets times -sqrt(2/v), with -|m_k - m_j|^2 / 2v as a last column,
    form u whole. Its bits are those of the product over the d node rows
    with |m_k - m_j|^2 / 2v subtracted after it: |m_k - m_j|^2 / (-2v) is
    exactly the negative of that quotient, since rounding is symmetric in
    sign, the ones row multiplies exactly, and the matrix product adds its
    d + 1 terms in order, which the tests check on nine alphabets at every
    order of the ladder. And

        I = -sum_k p_k E[L_k],   L_k = log sum_j p_j exp(u_kj).

    No entropy is formed, so nothing cancels at low SNR, where every u_kj is
    small. With priors summing to 1, which this form takes as exact,

        L_k = c + log1p(sum_j p_j expm1(u_kj - c))   for any shift c.

    The kernel takes c = max_j (u_kj + ln(p_j / p_max)). Then the largest
    term p_j exp(u_kj - c) is p_max, so 1 + the log1p argument lies in
    [p_max, n p_max], and no exp(u_kj - c) exceeds p_max / p_j, which is
    finite for priors down to e^-700. The plain row maximum c = max_j u_kj
    would send the argument to -1 when a component of tiny prior dominates,
    and log1p would return -inf. For uniform priors ln(p_j / p_max) is 0 and
    c is the row maximum, which needs no second buffer. For two equiprobable
    points L_k is the f(u) of :func:`bpsk_mi` with c = max(0, u), and the
    kernel runs it as such (below).

    Components in one orbit of the alphabet's isometries have equal terms
    (:func:`_symmetry_classes`), so one representative per orbit is
    evaluated, weighted by the orbit's summed prior: one class for BPSK and
    8-PSK, two for 4-ASK and the cocktail 4-PAM. QPSK and 16-QAM are axis
    products and run as their 1-D rail, of one class and of two, with the
    weights doubled (:func:`_alphabet_plan`). The terms are equal in exact
    arithmetic. The tensor rule is not rotation-invariant, so on it 8-PSK's
    axis and diagonal points differ by their rule errors, up to 2.7e-12 bits at order 192 on the 60-point grid
    SNR 1e-3..1e2; the rate is the axis point's, within 2.0e-12 bits of the
    exact rate there (module docstring). Zero-prior components take no
    part.

    What is left of the symmetry folds the rule. Let g be in the stabilizer
    of the representative r: a symmetry that fixes m_r - c, c the centroid.
    Then g^-1 maps the alphabet onto itself prior for prior, so it takes
    each offset m_r - m_j to another, m_r - m_j' with p_j' = p_j, of the
    same length. As g is orthogonal, (m_r - m_j).(g t) = g^-1(m_r - m_j).t,
    so u_rj(g t) = u_rj'(t) and L_r(g t) = L_r(t). The rule is invariant
    under g as well, so the class is summed over one node per orbit of its
    stabilizer, weighted by the orbit's size (:func:`_unit_rule`). At order
    192, a class fixed by the swap of the axes, such as a diagonal point,
    takes 3813 of the 7556 nodes and 8-PSK's, fixed by the reflection in
    the x axis, 3778. A class whose stabilizer is the
    identity alone takes the pruned rule itself, so BPSK, 4-ASK and the
    cocktail 4-PAM keep their bits. Where the alphabet is symmetric to its
    rounding, folding moves a rate by summation order alone: at most 4.4e-16
    bits on the kernel tests' alphabets, SNR 1e-6..1e4. 8-PSK shifted to
    (1e3, -1e3) is symmetric only to the rounding of its coordinates, and
    folding moves its rate by as much as the grouping into classes already
    does, 1.2e-13 bits. The classes, their offsets m_k - m_j, their
    stabilizers and ln(p_j / p_max) depend on the alphabet alone, so they
    are found once per alphabet, in the plan; a call does only the work
    that depends on v.

    The kernel runs the plan's passes (:func:`_alphabet_plan`), each a
    (C, n, nodes) block for its C classes on the priors it carries, and
    subtracts each class's term as its pass runs, so the classes in their
    order. One product forms every pass's exponents in either dimension:
    the (C, n, d) offsets times -sqrt(2/v), with the (C, n, 1)
    -|m_k - m_j|^2 / 2v beside them, @ the (d + 1, nodes) affine rule.
    Stacking moves no bit: every entry takes the same operations on the
    same operands in the same order as one class at a time. A stacked pass
    is 1-D, where a (C, n, 2) @ (2, nodes) product adds two terms per
    entry; a 2-D pass is one class. The maxima are exact in any order, and each
    p @ u row is the same vector-matrix product.

    A 1-D pass of two components whose priors are both exactly 1/2, as
    BPSK's and QPSK's rail are, skips that block. Per class it forms the
    other point's exponent u = (D scale) t + |D|^2 / (-2v) on row 0 of the
    rule, one product and one sum, and hands it to
    :func:`_antipodal_mean`, the body :func:`bpsk_mi` runs on its own u.
    That keeps the general pass's bits on any BLAS, for two reasons. With
    the ones row, the product's entry is D scale times t rounded, then
    |D|^2 / (-2v) added and rounded, with or without FMA; the own row's
    exponent is +-0. With p = 1/2 each prior product is exact, and one of
    the two terms is the own row's +-0, so p @ expm1(u - c) is exactly
    expm1(-|u|) / 2, and the row maximum c is max(u, 0). Equal priors that
    are not exactly 1/2 (a pair may sum to 1 within 1e-12) keep the
    block, since their prior product rounds.

    The rule is the pruned one of :func:`_unit_rule`, so the (components x
    nodes) work buffers are a fifth of the full rule's in 2-D, and a tenth
    once folded; the a-priori bound on what the dropped nodes carry, 2e-25
    bits, is derived there. Measured against the full, unfolded rule (QPSK,
    8-PSK, 16-QAM, 4-ASK and a random set, SNR 1e-6..1e4, one prior of
    1e-200 or none), rates move by at most 1.3e-15 bits: the summation order
    changed, and nothing else.

    The plan holds the alphabet in one unit, a power of two
    (:func:`_alphabet_plan`), and ``var`` is in that unit, floored at
    2^-1020 by :func:`constellation_mi`. Every unit coordinate is below 1
    in magnitude, so |m_k - m_j|^2 < 8, |m_k - m_j|^2 / 2v < 2^1022 and
    2 / v <= 2^1021: every exponent, and every u_kj - c, is finite at any
    noise level, and no step of the kernel overflows.
    """
    scale = -math.sqrt(2.0 / var)
    rate = 0.0
    for maps, class_weights, delta, sq, pri, log_ratio in plan.passes:
        nodes, weights = _unit_rule(order, delta.shape[2], maps)
        if len(pri) == 2 and delta.shape[2] == 1 and log_ratio is None and pri[0] == 0.5:
            # Two points of prior 1/2. A class's own row has offset 0, so
            # each sum below is the other point's offset or squared length.
            for weight, ((d0,), (d1,)), ((s0,), (s1,)) in zip(class_weights, delta.tolist(), sq.tolist()):
                u = np.multiply(nodes[0], (d0 + d1) * scale)
                np.add(u, (s0 + s1) / (-2.0 * var), u)
                rate -= weight * _antipodal_mean(u, weights)
            continue
        # Fresh buffers per pass: a pass's rule size is its own. Rows index
        # j, so each reduction over j combines whole contiguous rows.
        u = np.matmul(np.concatenate((delta * scale, sq / (-2.0 * var)), axis=2), nodes)
        c = np.maximum.reduce(u if log_ratio is None else u + log_ratio[:, None], 1)
        u -= c[:, None]
        np.expm1(u, u)
        lse = np.matmul(pri, u)
        np.log1p(lse, lse)
        lse += c
        for weight, row in zip(class_weights, lse):
            rate -= weight * float(np.dot(weights, row))
    return rate


# Room for every rule the default orders can ask for, so that sweeps do not
# rebuild them: 11 ladder orders in 1-D times 2 stabilizers (none, the
# mirror) and 10 in 2-D times 6 (none, the 4 reflections, all 7 maps) are 82
# keys; the rest serve explicit orders.
@lru_cache(maxsize=128)
def _unit_rule(order: int, d: int, maps: tuple) -> tuple:
    """The Gauss-Hermite rule of every kernel: the unit d-dimensional
    tensor-product rule of ``order`` nodes per dimension (a plain int
    order, checked by every caller before it looks a rule up, since a cache
    takes 256.0 for the key 256),
    pruned to the nodes whose weight exceeds ``_WEIGHT_FLOOR`` and folded by
    the signed axis maps ``maps`` (indices into ``_AXIS_MATRICES[d]``, the
    identity left out); nodes as a contiguous (d + 1, kept) array and
    weights summing to 1, read-only because every caller shares them.

    The rule is affine: rows 0 to d - 1 of the nodes are the node
    coordinates t and row d is ones, so one product of a row
    (a_1, ..., a_d, b) with them forms a.t + b at every node, the exponent
    of :func:`_rate_nats` with its constant term. Folding reads and maps
    the coordinate rows alone; the ones row goes with its column.
    :func:`bpsk_mi` reads row 0.

    Pruning keeps 116 of 256 nodes at order 256 in 1-D and 7556 of 36864 at
    order 192 in 2-D; the dropped weight is 2.1e-31 and 1.1e-28. The weights
    are products of the symmetric 1-D weights, so the kept set is still
    invariant under the signed permutations of the axes.

    ``maps`` and the identity form a group, the stabilizer of a class
    representative (:func:`_symmetry_classes`), under which that class's
    integrand is invariant (:func:`_rate_nats`). Folding keeps the lowest
    node of each orbit of the group, its weight times the orbit's size: 1,
    2, 4 or 8, so the product is exact and the weights still sum to 1 to
    rounding. At order 192 in 2-D, the reflection in one axis leaves 3778
    of the 7556 nodes, the swap of the axes 3813 (the 70 nodes on the
    diagonal are orbits of one), and all 8 maps 962; in 1-D, the mirror
    leaves 58 of 116. With no maps the rule is the pruned one, one object
    for every caller.

    The error this adds has an a-priori bound with no SNR cap. With priors
    p_j summing to 1, term j of L_k = log sum_j p_j exp(u_kj) (see
    :func:`_rate_nats`) at unit node t is ln p_j + sqrt(2) D.t - |D|^2 / 2
    <= ln p_j + |t|^2, D the scaled separation (m_j - m_k) / sqrt(v), so
    ln p_k <= L_k <= |t|^2. The antipodal integrand of :func:`bpsk_mi` is
    this L_k for p_k = 1/2. A dropped node therefore changes a rate by at
    most w (|t|^2 + |ln p_min|) nats. Summed over the dropped nodes with |ln p_min| <= 700, that is at
    most 2e-25 bits at every order from 8 to 256 in either dimension:
    1.2e-25 bits at order 192 in 2-D and 2.3e-28 bits at order 256 in 1-D.
    """
    if maps:
        nodes, weights = _unit_rule(order, d, ())
        # hermgauss returns nodes with t[-1 - i] == -t[i] exactly, and the
        # pruned set keeps every signed axis map, so the image g @ t of a
        # node, whose entries are sums of 0 and +-1 times a coordinate, is
        # again a node to the bit. Each node is named by the indices of its
        # coordinates among the sorted distinct ones.
        coords = np.sort(nodes[:d], axis=None)  # np.unique would import numpy.ma, 20 ms
        coords = coords[np.diff(coords, prepend=-np.inf) > 0]
        shape = (coords.size,) * d
        group = _AXIS_MATRICES[d][[0, *maps]]  # the identity first
        images = np.ravel_multi_index(np.searchsorted(coords, group @ nodes[:d]).swapaxes(0, 1), shape)
        own = images[0]
        images = np.sort(images, axis=0)
        # An orbit is kept as its lowest node, weighted by the orbit's size,
        # the number of distinct images.
        lowest = images[0] == own
        size = 1 + np.count_nonzero(np.diff(images, axis=0), axis=0)
        nodes, weights = np.ascontiguousarray(nodes[:, lowest]), weights[lowest] * size[lowest]
        nodes.flags.writeable = weights.flags.writeable = False
        return nodes, weights
    t, w = np.polynomial.hermite.hermgauss(order)
    weights = reduce(np.multiply.outer, [w] * d).ravel() / math.pi ** (d / 2)
    kept = weights > _WEIGHT_FLOOR
    nodes = np.ones((d + 1, np.count_nonzero(kept)))  # the last row stays ones
    for row, axis in zip(nodes, np.meshgrid(*[t] * d, indexing="ij")):
        row[:] = axis.ravel()[kept]
    weights = weights[kept]
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _axis_maps(d: int) -> np.ndarray:
    """The signed permutations of d axes as (2**d * d!, d, d) matrices,
    identity first: row i of a map is s_i times the unit vector of axis p_i,
    for each permutation p in turn and each sign vector s under it."""
    eye = np.eye(d)
    signs = list(product((1.0, -1.0), repeat=d))
    return np.array([eye[list(p)] * np.array(s)[:, None] for p in permutations(range(d)) for s in signs])


_AXIS_MATRICES = {d: _axis_maps(d) for d in (1, 2)}
# The index among them of x -> -x, the central symmetry.
_INVERSION = {d: int(np.flatnonzero((maps == -np.eye(d)).all(axis=(1, 2)))[0]) for d, maps in _AXIS_MATRICES.items()}


def _centred(pts: np.ndarray, pri: np.ndarray) -> tuple:
    """The live points ``pts`` less their prior-weighted centroid, and the
    tolerance of every symmetry test: 1e-12 times the alphabet's extent."""
    return pts - pri @ pts / pri.sum(), 1e-12 * float(np.ptp(pts, axis=0).max())


def _hits(centred: np.ndarray, pri: np.ndarray, tol: float, maps: np.ndarray) -> np.ndarray:
    """hit[g, i, j]: the orthogonal (d, d) matrix ``maps[g]`` takes centred
    point i onto point j within ``tol``, and the two have the same prior.
    The points are distinct, so map g is a symmetry of the alphabet, about
    its centroid and prior for prior, when every point hits one."""
    images = centred @ maps.transpose(0, 2, 1)
    hit = pri[:, None] == pri[None, :]
    # One comparison per axis: numpy reduces a trailing axis of 2 slowly.
    for image, coord in zip(images.transpose(2, 0, 1), centred.T):
        hit = hit & (np.abs(image[:, :, None] - coord) <= tol)
    return hit


def _plane_isometries(centred: np.ndarray, pri: np.ndarray, tol: float) -> np.ndarray:
    """The candidate isometries of a 2-D alphabet about its centroid, as
    (m, 2, 2) matrices: an orthogonal map of the plane is fixed by where it
    sends one point p off the centroid, and a symmetry sends p to a point
    of the same prior and radius, so for a farthest p the candidates are the
    rotation and the reflection that take p to each such point q. In
    complex terms these are z -> a z and z -> b conj(z), with a = q / p and
    b = q / conj(p). An alphabet of one point has none."""
    z = centred @ np.array([1.0, 1j])
    radius = np.abs(z)
    far = int(radius.argmax())
    p = z[far]
    if p == 0.0:
        return np.empty((0, 2, 2))
    q = z[(pri == pri[far]) & (np.abs(radius - radius[far]) <= tol)]
    a, b = q / p, q / p.conjugate()
    rotations = np.stack([a.real, -a.imag, a.imag, a.real], axis=1)
    reflections = np.stack([b.real, b.imag, b.imag, -b.real], axis=1)
    return np.concatenate([rotations, reflections]).reshape(-1, 2, 2)


def _symmetry_classes(centred: np.ndarray, pri: np.ndarray, tol: float) -> tuple:
    """(classes, central) for the live components of a mixture, those of
    prior > 0, given as :func:`_centred` returns them: ``centred`` (n, d),
    the points less their centroid, and ``tol``, with ``pri`` (n,) their
    priors. ``classes`` holds (representative index, summed prior,
    stabilizer) for each class of components whose terms are equal in exact
    arithmetic, indices referring to the live components. ``central`` says
    whether x -> -x about the centroid is among the symmetries proved.

    Component k's term depends only on the priors p_j and the offsets
    m_j - m_k, and the noise is isotropic. So an orthogonal map g that
    carries the alphabet, centred on its prior-weighted centroid c, onto
    itself prior for prior takes k's term to that of the component at
    c + g(m_k - c), and the classes are the orbits of the components under
    every such isometry. In 1-D these are the signed axis maps (the identity
    and the mirror). In 2-D they are searched among the 8 signed axis maps
    and the at most 2n candidates of :func:`_plane_isometries`, each
    checked on every point within a tolerance relative to the
    constellation's extent (:func:`_hits`). A symmetry keeps priors, so a
    class never mixes them. 8-PSK is one orbit under its rotations by
    pi / 4, so it is one class; QPSK is one, 16-QAM three, and an alphabet
    turned by a generic angle has the classes it has unturned.

    The tensor-product rule keeps only the signed axis maps, so it holds
    the terms of one class equal only to its rule error: up to 2.7e-12 bits
    at order 192 between 8-PSK's axis and diagonal points, with a sign that
    depends on the SNR. So the representative must not depend on the order
    in which the points are listed. It is the member with the largest
    stabilizer, then the greatest centred x, then y, each compared within
    the tolerance, and then the lowest index among that member's images
    under the symmetric axis maps, whose terms equal its own to rounding
    because the rule keeps those maps. For 8-PSK that is (1, 0). Where the
    axis maps alone make every orbit (every 1-D alphabet, QPSK, 16-QAM),
    those images are the whole class, so its lowest index represents it.

    The stabilizer of representative r is the tuple of the symmetric axis
    maps, the identity left out, that take m_r - c onto itself, as indices
    into ``_AXIS_MATRICES[d]``: empty for BPSK, 4-ASK and the cocktail 4-PAM,
    the swap of the axes for QPSK, the reflection in the x axis for 8-PSK's
    (1, 0), all 7 for a 2-D point on the centroid. :func:`_rate_nats` folds
    the rule of r's class by it.
    """
    n, d = centred.shape
    maps = _AXIS_MATRICES[d]
    if d == 2:
        maps = np.concatenate([maps, _plane_isometries(centred, pri, tol)])
    hit = _hits(centred, pri, tol, maps)
    proved = hit.any(axis=2).all(axis=1)
    # The symmetric axis maps, identity first, and what each does to a point.
    axis = np.flatnonzero(proved[: len(_AXIS_MATRICES[d])])
    moves = hit[axis]
    stabilizer = np.diagonal(moves, axis1=1, axis2=2).sum(axis=0)
    # Row i of reach is i's orbit; its lowest member names it.
    reach = hit[proved].any(axis=0)
    orbit = reach.argmax(axis=1)
    rep = np.empty(n, dtype=np.intp)
    for first in dict.fromkeys(orbit.tolist()):
        members = np.flatnonzero(orbit == first)
        best = members[stabilizer[members] == stabilizer[members].max()]
        for dim in range(d):  # the greatest centred x, then y
            coord = centred[best, dim]
            best = best[coord >= coord.max() - tol]
        rep[members] = np.flatnonzero(moves[:, best[0]].any(axis=0))[0]
    mass = np.bincount(rep, weights=pri)
    # Map 0 is the identity, in every stabilizer.
    classes = [
        (int(r), float(mass[r]), tuple(int(g) for g in axis[moves[:, r, r]] if g))
        for r in np.flatnonzero(mass)
    ]
    return classes, bool(proved[_INVERSION[d]])


# The Simpson cross-check integrates over the means' span widened by this
# many noise deviations a side, and bisects at most this deep.
_SIMPSON_TAIL_SIGMAS = 12.0
_SIMPSON_MAX_DEPTH = 48


def gaussian_mixture_entropy_simpson(means, priors, var_per_dim: float, tol: float = 1e-12) -> float:
    """Adaptive-Simpson evaluation of the 1-D mixture entropy, in bits.

    Independent cross-check of :func:`constellation_mi`, whose rate on a 1-D
    alphabet at ``NoiseModel(2 * var_per_dim)`` is this entropy less
    ``noise_entropy(NoiseModel(var_per_dim))``. Integrates
    -p(y) log2 p(y) over [min(means) - 12 sigma, max(means) + 12 sigma]; where
    the density underflows the integrand is taken as 0. ``means`` and
    ``priors`` follow the alphabet rule; the means must be 1-D.
    """
    means = _alphabet_points("means", means)
    if means.shape[1] != 1:
        raise ValueError(f"means must be 1-D, shape (n,) or (n, 1), got shape {means.shape}")
    priors = _alphabet_priors(priors, len(means))
    var_per_dim = _real("var_per_dim", var_per_dim, above=0.0)
    sig = math.sqrt(var_per_dim)

    def f(y: float) -> float:
        lp = _mixture_logpdf(np.array([[y]]), means, priors, var_per_dim)[0]
        p = math.exp(lp)
        return 0.0 if p == 0.0 else -p * lp / _LN2

    lo = float(means.min()) - _SIMPSON_TAIL_SIGMAS * sig
    hi = float(means.max()) + _SIMPSON_TAIL_SIGMAS * sig
    return _adaptive_simpson(f, lo, hi, tol)


def _adaptive_simpson(f, a: float, b: float, tol: float) -> float:
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, fa, b, fb, m, fm, whole, tol, depth):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        if depth >= _SIMPSON_MAX_DEPTH or abs(delta) <= 15.0 * tol:
            return left + right + delta / 15.0
        return recurse(a, fa, m, fm, lm, flm, left, 0.5 * tol, depth + 1) + recurse(
            m, fm, b, fb, rm, frm, right, 0.5 * tol, depth + 1
        )

    return recurse(a, fa, b, fb, m, fm, whole, tol, 0)


@lru_cache(maxsize=None)
def _antipodal_rule(order: int) -> tuple:
    """sqrt(2) t and the weights w of the 1-D rule of :func:`_unit_rule` at
    a checked ``order``, read-only: the constants of :func:`bpsk_mi`, kept
    per order instead of formed on every call. The cache has no size limit,
    since the order check admits 249 keys."""
    nodes, weights = _unit_rule(order, 1, ())
    root2_t = _SQRT2 * nodes[0]
    root2_t.flags.writeable = False
    return root2_t, weights


# Constant operands of bpsk_mi: numpy converts a Python float operand on every
# call, and a 0-d array costs it less.
_ZERO = np.array(0.0)
_TWO = np.array(2.0)
_MINUS_ONE = np.array(-1.0)
_ZERO.flags.writeable = _TWO.flags.writeable = _MINUS_ONE.flags.writeable = False


def _antipodal_mean(u: np.ndarray, weights: np.ndarray) -> float:
    """sum_i w_i f(u_i), in nats, with f(u) = log1p(expm1(u) / 2) =
    max(u, 0) + log1p(expm1(-|u|) / 2): the mean of L_k over the rule for
    two equiprobable points, u the exponent of the other point at each node
    (:func:`_rate_nats`). The one body of the antipodal integrand, for
    :func:`bpsk_mi` and the kernel's two-point passes; it writes over ``u``.
    Each numpy call writes into ``u`` or one more buffer, in the order and
    with the operands written above; -|u| is one copysign, which gives the
    bits of abs then negate."""
    f = np.copysign(u, _MINUS_ONE)  # -|u|, to the bit
    np.expm1(f, f)
    np.divide(f, _TWO, f)
    np.log1p(f, f)
    np.maximum(u, _ZERO, out=u)  # numpy deprecates a positional out here
    np.add(u, f, u)
    return float(weights.dot(u))  # the method skips np.dot's dispatch


def bpsk_mi(amplitude: float, noise: NoiseModel, order: int = _MAX_ORDER) -> float:
    """Mutual information, in bits, of antipodal signaling {+A, -A} with
    equal priors over one real dimension of the channel, whose noise
    variance is v = ``noise.variance / 2``.

    The rate depends only on q = A / sqrt(v), with sqrt(v) rounded once by
    the package's deviation rule (:class:`NoiseModel`): a variance below
    2^-1021 is halved at a scale of 2^600, so an odd last bit is not
    rounded away. Given X = +A, the output is
    Y = A + n, and I = 1 - E_n[log2(1 + exp(u))] with u = -2A(A + n)/v, the
    log-likelihood ratio against the other point. With n = sqrt(2v) t on the
    1-D rule of :func:`_unit_rule` (nodes t, weights w summing to 1),

        I = -sum_i w_i f(u_i) / ln 2,   u = -2q(q + sqrt(2) t),
        f(u) = log1p(expm1(u) / 2) = max(u, 0) + log1p(expm1(-|u|) / 2).

    This is :func:`_rate_nats` on {+A, -A}, where L_k = f(u) with the shift
    c = max(0, u), with its u formed as written above on sqrt(2) t, kept per
    order. Both take f and its weighted sum from one body,
    :func:`_antipodal_mean`; the kernel's two-point pass forms u from the
    plan's offsets instead. A call costs 5.9-6.0 us, and a bpsk point of
    :func:`cbpsk.sweep.scheme_rate`, which runs that pass on the built plan,
    8.9-9.7 us, against 13.2-13.4 us on the general pass (medians of 15
    passes over the 60-point grid 1e-3..1e2 of ``tools/bench_kernels.py``,
    records ``two_point_pass`` and ``general_two_point`` of
    ``BENCH_kernels.json``, one BLAS thread, 2-vCPU x86_64). No two
    entropies cancel, so the rate keeps its relative
    accuracy at low SNR, where
    I = (s/2 - s^2/4 + s^3/6 - ...) / ln 2 with s = q^2 (within 1e-12
    relative down to s = 1e-8). Below that the quadrature would lose about
    1e-16 / q relative to rounding. So a call takes one of two paths: for
    s <= 1e-8 the rate is this three-term series, whose dropped terms are
    below 5e-25 relative (amplitude 0 gives s = 0 and so 0), and above it
    the kernel. q is first capped at ``_MEAN_CAP`` = 2^500, the cap
    :func:`cbpsk.linksim.mc_bpsk_mi`, its Monte Carlo oracle, puts on its
    mean as well, so both read the same q at every input. At the cap u is
    about -2^1001 at every node, so f = -ln 2 and the kernel returns the
    rounded sum of the weights, as it does from q of about 10 on: 1 at
    orders 8 and 256, and at most 4 ulps below 1 at the others. The
    result is clamped into [0, 1].
    """
    # A plain float and an int order, the common case, are checked inline.
    if not (type(amplitude) is float and 0.0 <= amplitude < math.inf):
        amplitude = _real("amplitude", amplitude, at_least=0.0)
    if not (type(order) is int and _MIN_ORDER <= order <= _MAX_ORDER):
        order = _integer("quadrature order", order, _MIN_ORDER, _MAX_ORDER + 1)
    q = amplitude / _deviation(noise.variance)
    if q > _MEAN_CAP:
        q = _MEAN_CAP
    s = q * q
    if s <= _SERIES_MAX_S:
        return s * (0.5 - s * (0.25 - s / 6.0)) / _LN2
    root2_t, w = _antipodal_rule(order)
    u = np.add(root2_t, q)
    np.multiply(u, -2.0 * q, u)
    return min(1.0, max(0.0, -_antipodal_mean(u, w) / _LN2))


def constellation_mi(c: Constellation, noise: NoiseModel, order: int | None = None) -> float:
    """Mutual information I(X; Y), in bits, of a finite constellation over AWGN.

    Each real dimension carries noise variance ``noise.variance / 2``, as
    :class:`NoiseModel` states. Without an ``order``, the order per
    dimension is the first of the ladder 8, 12, ..., 192 whose limit covers
    s = max |m_k - m_j|^2 / v over the live components, v the variance per
    dimension, and above the last limit the cap, 256 in 1-D and 192 in 2-D
    (module docstring): over SNR 1e-8..1e4 it is within 3.3e-16 bits of the
    cap on BPSK, 4-ASK, the cocktail 4-PAM, QPSK, 8-PSK and 16-QAM. An
    axis-aligned product such as QPSK or 16-QAM runs as its 1-D factors
    (:func:`_alphabet_plan`), so its s is that of its widest factor, on the
    1-D ladder and its cap 256; QPSK is then within 7.2e-10 bits of its
    exact rate, twice the 1-D rule's error, where the 2-D tensor rule erred
    by up to 5.5e-9. A given ``order`` is used as it is, and keeps its
    meaning for a product, since the tensor rule of order n is the product
    of the 1-D rules of order n.
    A call reads one record, the constellation's kernel plan
    (:func:`_alphabet_plan`), built from its checked points and priors on
    the first call and kept: the numerator of s, the low-SNR series and the
    kernel's passes all come from its one symmetry search, in one unit, a
    power of two. The call forms v in that unit once, ``noise.variance / 2``
    times ``factor``^2 (halved after the scaling where the variance is
    below 2^-1021, so that the half is exact), floored at 2^-1020 (module
    docstring), and s, the series and the kernel all read it, so the
    choice of order costs a division and a bisection of the ladder's
    limits.
    The rate kernel :func:`_rate_nats` forms I directly, so the rate keeps
    its relative accuracy at low SNR: within 1.1e-12 of 30-digit mpmath at
    SNR 1e-8..1e-4 for BPSK, 4-ASK, QPSK and the cocktail 4-PAM. Further
    down the kernel would lose about 1e-16/sqrt(SNR) relative, since each
    node's exponent is dominated by its linear term. So a centrally
    symmetric alphabet (x -> 2c - x maps it onto itself, prior for prior,
    c the centroid, as the plan's symmetry search finds) takes the series
    of the Gaussian (1/2) log det(I + S),
    I = (tr S / 2 - tr S^2 / 4 + tr S^3 / 6) / ln 2 with S = C / v and C
    the prior-weighted covariance of the points, once tr S <= 1e-8, the
    threshold of :func:`bpsk_mi`: the input's fourth cumulant first enters
    at (tr S)^4, so the dropped terms are about 0.4 (tr S)^3 relative, 4e-25
    there, for BPSK, 4-ASK, QPSK, 8-PSK and 16-QAM. On {+A, -A} this is the
    series of :func:`bpsk_mi`, to rounding. An alphabet that is not
    centrally symmetric keeps the kernel at every SNR: its error is
    O((tr S)^3) relative, so the series does not hold for it. For the
    two-point {+A, -A} alphabet the kernel agrees with :func:`bpsk_mi`, the
    same integrand written out, within 5e-16 bits.
    The result is clamped into [0, log2(alphabet size)].
    """
    if order is not None:
        order = _integer("quadrature order", order, _MIN_ORDER, _MAX_ORDER + 1)
    return _plan_rate(c._plan, math.log2(len(c.points)), noise.variance, order)


def _constellation_rates(c: Constellation, variances) -> list:
    """:func:`constellation_mi` of ``c`` at each of ``variances`` on the
    default order, in bits, to the bit; each is a total noise power that
    :class:`NoiseModel` would accept, as the caller has made sure. A curve
    reads the alphabet's plan and its log2 M cap once."""
    plan, cap = c._plan, math.log2(len(c.points))
    return [_plan_rate(plan, cap, variance, None) for variance in variances]


def _plan_rate(plan: _Plan, cap: float, variance: float, order: int | None) -> float:
    """The one body of every rate of a :class:`Constellation`: the rate, in
    bits, of the alphabet whose plan is ``plan`` at total noise power
    ``variance``, on the checked ``order`` or the ladder's, clamped into
    [0, ``cap``]."""
    factor, series = plan.factor, plan.series
    # Halved after the unit's factor^2 where the half alone would round.
    var = variance / 2.0 * factor * factor if variance >= _EXACT_HALF else variance * factor * factor / 2.0
    var = max(var, _UNIT_VAR_FLOOR)
    if series is not None and series[0] / var <= _SERIES_MAX_S:
        # Divided once per power, so a term underflows to 0 rather than
        # meeting an underflowed power of v.
        s = series[0] / var
        s2 = series[1] / var / var
        s3 = series[2] / var / var / var
        rate = (0.5 * s - 0.25 * s2 + s3 / 6.0) / _LN2
    else:
        if order is None:
            order = _LADDER[plan.dimension][bisect_left(_LADDER_LIMITS, plan.widest / var)]
        rate = _rate_nats(plan, var, order) / _LN2
    return min(cap, max(0.0, rate))
