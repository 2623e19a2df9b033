"""Mutual-information kernels for finite constellations over AWGN channels.

All rates are in bits. One rate kernel, :func:`_rate_nats`, serves 1-D and
2-D alphabets in :func:`constellation_mi`. It forms I(X; Y) = -sum_k p_k
E[L_k], L_k = log sum_j p_j p(y | m_j) / p(y | m_k) at y = m_k + n, by
Gauss-Hermite quadrature against each component, and no entropy: H(Y) -
H(N) subtracts two entropies of 1-2 bits, which leaves 2.5e-9 relative
error at SNR 1e-8. The exponent is affine in the noise sample, so a
component costs one small matrix product, and each orbit of the alphabet's
symmetry group is evaluated once, over the rule folded by the symmetries
that fix it; these shortcuts move a value only by summation order. The
orbits, their offsets and their symmetries depend on the alphabet alone, so
each :class:`Constellation` finds them once, in its kernel plan
(:func:`_alphabet_plan`), and a call does only the work that depends on the
noise.

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
3813 nodes for QPSK and for the diagonal points of 8-PSK, and 3778 for its
axis points; 1-D alphabets fold only at a point on their centroid.

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
the cocktail 4-PAM are within 1.1e-12 relative (QPSK at 1e-8), and within
1.3e-13 for the 1-D alphabets. In 2-D (order 192 per dimension), QPSK is
within 5.5e-9 bits of its exact rate, two antipodal channels, with the peak
near SNR 12.8. The tensor rule factorises into the 1-D rule, so QPSK at
order 256 carries twice the 1-D error, up to 7.1e-10 bits. 8-PSK at order
192 differs from order 256 by at most 1.7e-12 bits over SNR 1e-3..1e2: a
convergence figure, not an error bound.

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
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from itertools import permutations, product

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
# Above this q = A / sqrt(v), 2q(q + sqrt(2) t) overflows at the outer
# Hermite nodes; bpsk_mi already rounds to 1.0 from q of about 10 on.
_Q_SATURATED = math.sqrt(sys.float_info.max) / 4.0
# At or below this s = q^2, bpsk_mi returns the series (s/2 - s^2/4 + s^3/6)
# / ln 2: the dropped terms are 5/12 s^3 relative (4e-25 here), while the
# quadrature loses about 1e-16 / q relative to rounding (7e-13 just above).
_SERIES_MAX_S = 1e-8

# numpy's hermgauss develops overflow (NaN weights) somewhere above order
# 256; 256 nodes already put the Hermite/Simpson discrepancy below 1e-9.
_MIN_ORDER = 8
_MAX_ORDER = 256
# Per-dimension default of constellation_mi: the 2-D tensor rule has
# order**2 nodes, so it runs at a lower order.
_DEFAULT_ORDER = {1: _MAX_ORDER, 2: 192}
# The quadrature rule keeps only nodes whose normalised weight is above this;
# the bound on what the dropped ones carry is in _unit_rule.
_WEIGHT_FLOOR = 1e-30


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
    half is above 0 as well.
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
    def _plan(self) -> tuple:
        """The alphabet's :func:`_alphabet_plan`, built on the first rate call
        and kept. It is not a field, so equality, hashing, repr and pickles
        ignore it, and copies build their own."""
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

    Valid only for snr << 1; it overshoots log2(1 + snr) elsewhere.
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


def _alphabet_plan(points: np.ndarray, priors) -> tuple:
    """What :func:`_rate_nats` needs of an alphabet at any noise level, as
    (priors, log_ratio, passes), for the alphabet ``points`` (a checked
    (n, d) array) with ``priors`` (n checked weights).

    ``priors`` are the live ones, prior > 0, to which everything else
    refers. ``log_ratio`` is the column ln(p_j / p_max), or None when every
    live prior is p_max. ``passes`` are the passes the kernel runs over the
    classes of :func:`_symmetry_classes`, one record (maps, weights, delta,
    sq) per pass of C classes: the stabilizer ``maps`` that selects the
    pass's folded rule, the summed prior of each class, the offsets
    delta = m_k - m_j of each class's representative k, and their squared
    lengths, stacked to shapes (C, n, d) and (C, n, 1) for n live
    components.

    In 1-D the classes that share a stabilizer share a rule, so they form
    one pass: 4-ASK and the cocktail 4-PAM make one sequence of numpy calls
    instead of two. Their rows are a few hundred numbers, so numpy's
    per-call cost, not the arithmetic, is what a pass saves. A 2-D class is
    its own pass: its rows are thousands of nodes long, so stacking would
    save little time and multiply the work buffers by C. A pass lists its
    classes in the order of :func:`_symmetry_classes`, and the passes run in
    the order of their first class. The arrays are read-only, because a
    :class:`Constellation` keeps its plan for every call.
    """
    pri = np.asarray(priors, dtype=float)
    live = pri > 0.0
    pts, pri = points[live], pri[live]
    log_ratio = np.log(pri / pri.max())
    groups = {}
    for k, weight, maps in _symmetry_classes(pts, pri):
        _, reps, weights = groups.setdefault(maps if pts.shape[1] == 1 else k, (maps, [], []))
        reps.append(k)
        weights.append(weight)
    passes = []
    for maps, reps, weights in groups.values():
        delta = pts[reps, None] - pts
        sq = np.sum(delta * delta, axis=2, keepdims=True)
        delta.flags.writeable = sq.flags.writeable = False
        passes.append((maps, tuple(weights), delta, sq))
    pri.flags.writeable = log_ratio.flags.writeable = False
    return pri, log_ratio if log_ratio.any() else None, tuple(passes)


def _rate_nats(plan: tuple, var_per_dim: float, order: int) -> float:
    """Mutual information I(X; Y), in nats, of the alphabet whose
    :func:`_alphabet_plan` is ``plan`` over isotropic Gaussian noise of
    variance ``var_per_dim`` per dimension, on the rule of checked
    ``order``.

    Given X = m_k, write Y = m_k + n with n = sqrt(2v) t, t a node of the
    d-dimensional rule of :func:`_unit_rule`. Then p(y | m_j) / p(y | m_k) =
    exp(u_kj) with the exponent affine in the node,

        u_kj = -sqrt(2/v) (m_k - m_j).t - |m_k - m_j|^2 / 2v,   u_kk = 0,

    one (n x d) @ (d x nodes) product per component, and

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
    points L_k is the f(u) of :func:`bpsk_mi` with c = max(0, u).

    Components in one orbit of the alphabet's symmetry group have equal terms
    (:func:`_symmetry_classes`), so one representative per orbit is
    evaluated, weighted by the orbit's summed prior: one class for BPSK and
    QPSK, two for 4-ASK, the cocktail 4-PAM and 8-PSK, three for 16-QAM. The
    rule is not rotation-invariant, so in 8-PSK the points on an axis and on
    a diagonal keep their own terms, which differ by the rule's error (about
    2e-12 bits at order 192). Zero-prior components take no part.

    What is left of the symmetry folds the rule. Let g be in the stabilizer
    of the representative r: a symmetry that fixes m_r - c, c the centroid.
    Then g^-1 maps the alphabet onto itself prior for prior, so it takes
    each offset m_r - m_j to another, m_r - m_j' with p_j' = p_j, of the
    same length. As g is orthogonal, (m_r - m_j).(g t) = g^-1(m_r - m_j).t,
    so u_rj(g t) = u_rj'(t) and L_r(g t) = L_r(t). The rule is invariant
    under g as well, so the class is summed over one node per orbit of its
    stabilizer, weighted by the orbit's size (:func:`_unit_rule`). At order
    192, QPSK's class and 8-PSK's diagonal class take 3813 of the 7556
    nodes and 8-PSK's axis class 3778. A class whose stabilizer is the
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
    (C, n, nodes) block for its C classes, and subtracts each class's term
    as its pass runs. Stacking moves no bit: every entry takes the same
    operations on the same operands in the same order as one class at a
    time. In 1-D, u is the outer product of (m_k - m_j) * -sqrt(2/v) and t,
    formed by a broadcasting multiply, and an (n x 1) @ (1 x nodes) matrix
    product has one term per entry, that same product. A 2-D pass fills
    each class's slice with its own (n x 2) @ (2 x nodes) product, since a
    batched product may sum in another order. The maxima are exact in any
    order, and each p @ u row is the same vector-matrix product.

    The rule is the pruned one of :func:`_unit_rule`, so the (components x
    nodes) work buffers are a fifth of the full rule's in 2-D, and a tenth
    once folded; the a-priori bound on what the dropped nodes carry, 2e-25
    bits, is derived there. Measured against the full, unfolded rule (QPSK,
    8-PSK, 16-QAM, 4-ASK and a random set, SNR 1e-6..1e4, one prior of
    1e-200 or none), rates move by at most 1.3e-15 bits: the summation order
    changed, and nothing else.
    """
    pri, log_ratio, passes = plan
    d = passes[0][2].shape[2]
    scale = -math.sqrt(2.0 / var_per_dim)
    rate = 0.0
    for maps, class_weights, delta, sq in passes:
        nodes, weights = _unit_rule(order, d, maps)
        # Fresh buffers per pass: a pass's rule size is its own. Rows index
        # j, so each reduction over j combines whole contiguous rows.
        u = np.empty((len(class_weights), len(pri), weights.size))
        if d == 1:
            np.multiply(delta * scale, nodes, u)
        else:
            for rows, scaled in zip(u, delta * scale):
                np.matmul(scaled, nodes, rows)
        u -= sq / (2.0 * var_per_dim)
        c = np.maximum.reduce(u if log_ratio is None else u + log_ratio[:, None], 1)
        u -= c[:, None]
        np.expm1(u, u)
        lse = np.matmul(pri, u)
        np.log1p(lse, lse)
        lse += c
        for weight, row in zip(class_weights, lse):
            rate -= weight * float(np.dot(weights, row))
    return rate


@lru_cache(maxsize=32)
def _unit_rule(order: int, d: int, maps: tuple) -> tuple:
    """The Gauss-Hermite rule of every kernel: the unit d-dimensional
    tensor-product rule of ``order`` nodes per dimension (a plain int
    order, checked by every caller before it looks a rule up, since a cache
    takes 256.0 for the key 256),
    pruned to the nodes whose weight exceeds ``_WEIGHT_FLOOR`` and folded by
    the signed axis maps ``maps`` (indices into ``_AXIS_MAPS[d]``, the
    identity left out); nodes as a contiguous (d, kept) array and weights
    summing to 1, read-only because every caller shares them.

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
        # pruned set keeps every signed axis map, so coordinate x has index
        # i among the sorted coordinates and -x has index size - 1 - i. Map
        # g takes the node of indices i to the node of indices i[orders[g]],
        # mirrored on the axes whose sign is -1.
        coords = np.sort(nodes, axis=None)  # np.unique would import numpy.ma, 20 ms
        coords = coords[np.diff(coords, prepend=-np.inf) > 0]
        index = np.searchsorted(coords, nodes)
        shape = (coords.size,) * d
        orders, signs = _AXIS_MAPS[d]
        own = np.ravel_multi_index(index, shape)
        images = [own]
        for g in maps:
            moved = index[orders[g]]
            images.append(np.ravel_multi_index(np.where(signs[g][:, None] > 0, moved, coords.size - 1 - moved), shape))
        images = np.sort(images, axis=0)
        # An orbit is kept as its lowest node, weighted by the orbit's size,
        # the number of distinct images.
        lowest = images[0] == own
        size = 1 + np.count_nonzero(np.diff(images, axis=0), axis=0)
        nodes, weights = np.ascontiguousarray(nodes[:, lowest]), weights[lowest] * size[lowest]
        nodes.flags.writeable = weights.flags.writeable = False
        return nodes, weights
    t, w = np.polynomial.hermite.hermgauss(order)
    nodes = np.stack([axis.ravel() for axis in np.meshgrid(*[t] * d, indexing="ij")])
    weights = reduce(np.multiply.outer, [w] * d).ravel() / math.pi ** (d / 2)
    kept = weights > _WEIGHT_FLOOR
    nodes = np.ascontiguousarray(nodes[:, kept])
    weights = weights[kept]
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _axis_maps(d: int) -> tuple:
    """The signed permutations of d axes as (axis orders, signs), two arrays
    of shape (2**d * d!, d): map g takes x to signs[g] * x[orders[g]]."""
    maps = [(p, s) for p in permutations(range(d)) for s in product((1.0, -1.0), repeat=d)]
    return np.array([p for p, _ in maps]), np.array([s for _, s in maps])


_AXIS_MAPS = {d: _axis_maps(d) for d in (1, 2)}


def _symmetry_classes(pts: np.ndarray, pri: np.ndarray) -> list:
    """(representative index, summed prior, stabilizer) for each class of
    components of a mixture whose quadrature terms are equal. ``pts`` (n, d)
    and ``pri`` (n,) are the live components, those of prior > 0, and
    indices refer to them.

    Component k's term depends only on the priors p_j and the offsets
    m_j - m_k, and the tensor-product rule is invariant under the signed
    permutations of the axes. A map g of those takes k's offsets onto r's,
    prior for prior, exactly when it carries the alphabet, centred on its
    prior-weighted centroid c, onto itself and m_k - c onto m_r - c (then
    x -> m_r + g(x - m_k) permutes the points, so it fixes c). So the
    classes are the orbits of the components under those symmetries, found
    within a tolerance relative to the constellation's extent; each is
    represented by its lowest index. A symmetry keeps priors, so a class
    never mixes them.

    The stabilizer of representative r is the tuple of those symmetries,
    the identity left out, that take m_r - c onto itself (hit[g, r, r]
    below), as indices into ``_AXIS_MAPS[d]``: empty for BPSK, 4-ASK and
    the cocktail 4-PAM, the swap of the axes for QPSK and for 8-PSK's
    diagonal points, the reflection in the axis it lies on for each of its
    axis points, all 7 for a 2-D point on the centroid. :func:`_rate_nats`
    folds the rule of r's class by it.
    """
    centred = pts - pri @ pts / pri.sum()
    tol = 1e-12 * float(np.ptp(pts, axis=0).max())
    orders, signs = _AXIS_MAPS[pts.shape[1]]
    images = (centred[:, orders] * signs).transpose(1, 0, 2)
    # hit[g, i, j]: map g takes point i onto point j, of the same prior. The
    # points are distinct, so g is a symmetry when every point hits one.
    gap = np.abs(images[:, :, None, :] - centred[None, None, :, :]).max(axis=-1)
    hit = (gap <= tol) & (pri[:, None] == pri[None, :])
    proved = np.flatnonzero(hit.any(axis=2).all(axis=1))
    symmetric = hit[proved]
    # The lowest index any symmetry takes k to represents k's orbit.
    rep = symmetric.argmax(axis=2).min(axis=0)
    mass = np.bincount(rep, weights=pri)
    # Map 0 is the identity, in every stabilizer.
    return [
        (int(r), float(mass[r]), tuple(int(g) for g in proved[symmetric[:, r, r]] if g))
        for r in np.flatnonzero(mass)
    ]


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


def bpsk_mi(amplitude: float, noise: NoiseModel, order: int = _MAX_ORDER) -> float:
    """Mutual information, in bits, of antipodal signaling {+A, -A} with
    equal priors over one real dimension of the channel, whose noise
    variance is v = ``noise.variance / 2``.

    The rate depends only on q = A / sqrt(v). Given X = +A, the output is
    Y = A + n, and I = 1 - E_n[log2(1 + exp(u))] with u = -2A(A + n)/v, the
    log-likelihood ratio against the other point. With n = sqrt(2v) t on the
    1-D rule of :func:`_unit_rule` (nodes t, weights w summing to 1),

        I = -sum_i w_i f(u_i) / ln 2,   u = -2q(q + sqrt(2) t),
        f(u) = log1p(expm1(u) / 2) = max(u, 0) + log1p(expm1(-|u|) / 2).

    This is :func:`_rate_nats` on {+A, -A}, where L_k = f(u) with the shift
    c = max(0, u), written out for its cost: sqrt(2) t is kept per order,
    and u and f are formed in two per-call buffers, each numpy call writing
    into one of them, in the order and with the operands written above;
    -|u| is one copysign, which gives the bits of abs then negate.
    A call costs 5.3 us against 13 us through :func:`constellation_mi` once
    the alphabet's kernel plan is built, and 98 us on a fresh
    :class:`Constellation`, whose first call builds it (best of 60 batches
    of 100 calls in one process, A = 0.7, v = 0.5, one BLAS thread, 2-vCPU
    x86_64). No two entropies cancel, so the rate keeps its relative
    accuracy at low SNR, where
    I = (s/2 - s^2/4 + s^3/6 - ...) / ln 2 with s = q^2 (within 1e-12
    relative down to s = 1e-8). Below that the quadrature would lose about
    1e-16 / q relative to rounding, so for s <= 1e-8 the rate is this
    three-term series, whose dropped terms are below 5e-25 relative. The
    result is clamped into [0, 1], and is 1 once q is too large for q^2 to
    be formed. Amplitude 0 is the degenerate no-information case.
    """
    # A plain float and an int order, the common case, are checked inline.
    if not (type(amplitude) is float and 0.0 <= amplitude < math.inf):
        amplitude = _real("amplitude", amplitude, at_least=0.0)
    if not (type(order) is int and _MIN_ORDER <= order <= _MAX_ORDER):
        order = _integer("quadrature order", order, _MIN_ORDER, _MAX_ORDER + 1)
    if amplitude == 0.0:
        return 0.0
    q = amplitude / math.sqrt(noise.variance / 2.0)
    if q > _Q_SATURATED:
        return 1.0
    s = q * q
    if s <= _SERIES_MAX_S:
        return s * (0.5 - s * (0.25 - s / 6.0)) / _LN2
    root2_t, w = _antipodal_rule(order)
    u = np.add(root2_t, q)
    np.multiply(u, -2.0 * q, u)
    f = np.copysign(u, _MINUS_ONE)  # -|u|, to the bit
    np.expm1(f, f)
    np.divide(f, _TWO, f)
    np.log1p(f, f)
    np.maximum(u, _ZERO, out=u)  # numpy deprecates a positional out here
    np.add(u, f, u)
    return min(1.0, max(0.0, -float(w.dot(u)) / _LN2))  # the method skips np.dot's dispatch


def constellation_mi(c: Constellation, noise: NoiseModel, order: int | None = None) -> float:
    """Mutual information I(X; Y), in bits, of a finite constellation over AWGN.

    Each real dimension carries noise variance ``noise.variance / 2``, as
    :class:`NoiseModel` states. The default order per dimension is 256 in
    1-D and 192 in 2-D.
    The rate kernel :func:`_rate_nats` forms I directly, from the
    constellation's own kernel plan, built from its checked points and
    priors on the first call and kept, so the rate keeps its
    relative accuracy at low SNR: within 1.1e-12 of 30-digit mpmath at SNR
    1e-8..1e-4 for BPSK, 4-ASK, QPSK and the cocktail 4-PAM. Below SNR
    1e-8 it loses about 1e-16/sqrt(SNR) relative: against the series of
    :func:`bpsk_mi`, BPSK at SNR 1e-12, 1e-16, 1e-20 and 1e-30 (as in
    :func:`cbpsk.sweep.scheme_rate`) is off by 1.5e-11, 2.9e-9, 2.1e-7 and
    7.6e-2, and QPSK at 1e-300 returns 0. So ``cbpsk cocktail --ratio 3.5
    --grid 1e-11:1e-10:log:40`` fails with a bpsk Eb/N0 axis that is not
    ascending. For the two-point {+A, -A} alphabet it agrees with
    :func:`bpsk_mi`, the same integrand written out, within 5e-16 bits.
    The result is clamped into [0, log2(alphabet size)].
    """
    d = c.dimension
    order = _DEFAULT_ORDER[d] if order is None else _integer("quadrature order", order, _MIN_ORDER, _MAX_ORDER + 1)
    rate = _rate_nats(c._plan, noise.variance / 2.0, order) / _LN2
    return min(math.log2(len(c.points)), max(0.0, rate))
