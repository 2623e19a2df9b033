"""Mutual-information kernels for finite constellations over AWGN channels.

All rates are in bits. One rate kernel, :func:`_rate_nats`, serves 1-D and
2-D alphabets in :func:`constellation_mi`. It forms I(X; Y) = -sum_k p_k
E[L_k], L_k = log sum_j p_j p(y | m_j) / p(y | m_k) at y = m_k + n, by
Gauss-Hermite quadrature against each component, and no entropy: H(Y) -
H(N) subtracts two entropies of 1-2 bits, which leaves 2.5e-9 relative
error at SNR 1e-8. The exponent is affine in the noise sample, so a
component costs one small matrix product, and each orbit of the alphabet's
symmetry group is evaluated once; neither shortcut moves the value.

Every kernel runs on one Gauss-Hermite rule, :func:`_unit_rule`: the
tensor-product rule pruned once, when it is built, to the nodes whose
normalised weight is above 1e-30: 116 of 256 nodes at order 256 in 1-D and
7556 of 36864 at order 192 in 2-D (a pruned multivariate Gauss-Hermite
rule; P. Jaeckel, "A note on multivariate Gauss-Hermite quadrature", 2005).
The integrand each kernel evaluates at a unit node t lies between ln p_min
and |t|^2 whatever the SNR, so the dropped nodes can move a rate by at most
2e-25 bits at any order, for priors down to e^-700.

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

Noise convention: a :class:`NoiseModel` carries a variance in power units.
One-dimensional constellations are integrated against that variance as
given. Two-dimensional (complex) constellations treat the variance as the
total complex noise power, split equally across the two real dimensions.

Alphabets follow one rule in :class:`Constellation` and the Simpson
cross-check: points (means) of shape (n,) or (n, d), d in {1, 2}, and n
priors >= 0 summing to 1 within 1e-12, every entry a finite number but not
bool.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache, reduce
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

    ``variance`` must be strictly positive and finite.
    """

    variance: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "variance", _real("noise variance", self.variance, above=0.0))


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
    """Differential entropy log2(sqrt(2*pi*e*variance)) of the noise, in bits.

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


def _rate_nats(points: np.ndarray, priors, var_per_dim: float, order: int) -> float:
    """Mutual information I(X; Y), in nats, of the alphabet ``points`` (a
    checked (n, d) array) with ``priors`` (n checked weights) over isotropic
    Gaussian noise of variance ``var_per_dim`` per dimension.

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

    The rule is the pruned one of :func:`_unit_rule`, so the (components x
    nodes) work buffers are a fifth of the full rule's in 2-D; the a-priori
    bound on what the dropped nodes carry, 2e-25 bits, is derived there.
    Measured against the full rule (QPSK, 8-PSK, 16-QAM, 4-ASK and a random
    set, SNR 1e-6..1e4, one prior of 1e-200 or none), rates move by at most
    1.3e-15 bits: the summation order changed, and nothing else.
    """
    d = points.shape[1]
    nodes, weights = _unit_rule(order, d)
    pri = np.asarray(priors, dtype=float)
    live = pri > 0.0
    pts, pri = points[live], pri[live]
    log_ratio = np.log(pri / pri.max())
    scale = -math.sqrt(2.0 / var_per_dim)
    # One set of buffers for every class: fresh multi-megabyte temporaries
    # per class cost more in page faults than the arithmetic. Rows index j,
    # so each reduction over j combines whole contiguous rows.
    u = np.empty((len(pts), weights.size))
    shifted = np.empty_like(u) if log_ratio.any() else None
    c = np.empty(weights.size)
    lse = np.empty(weights.size)
    rate = 0.0
    for k, weight in _symmetry_classes(pts, pri):
        delta = pts[k] - pts
        np.matmul(delta * scale, nodes, out=u)
        u -= (np.sum(delta * delta, axis=1) / (2.0 * var_per_dim))[:, None]
        if shifted is None:
            np.max(u, axis=0, out=c)
        else:
            np.add(u, log_ratio[:, None], out=shifted)
            np.max(shifted, axis=0, out=c)
        u -= c
        np.expm1(u, out=u)
        np.matmul(pri, u, out=lse)
        np.log1p(lse, out=lse)
        lse += c
        rate -= weight * float(np.dot(weights, lse))
    return rate


@lru_cache(maxsize=16)
def _unit_rule(order: int, d: int) -> tuple:
    """The Gauss-Hermite rule of every kernel: the unit d-dimensional
    tensor-product rule of ``order`` nodes per dimension, pruned to the nodes
    whose weight exceeds ``_WEIGHT_FLOOR``; nodes as a contiguous (d, kept)
    array and weights summing to 1, read-only because every caller shares
    them.

    Pruning keeps 116 of 256 nodes at order 256 in 1-D and 7556 of 36864 at
    order 192 in 2-D; the dropped weight is 2.1e-31 and 1.1e-28. The weights
    are products of the symmetric 1-D weights, so the kept set is still
    invariant under the signed permutations of the axes.

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
    if not (_is_integer(order) and _MIN_ORDER <= order <= _MAX_ORDER):
        raise ValueError(f"quadrature order must be an integer in [{_MIN_ORDER}, {_MAX_ORDER}], got {order!r}")
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
    """(representative index, summed prior) for each class of components of a
    mixture whose quadrature terms are equal. ``pts`` (n, d) and ``pri`` (n,)
    are the live components, those of prior > 0, and indices refer to them.

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
    """
    centred = pts - pri @ pts / pri.sum()
    tol = 1e-12 * float(np.ptp(pts, axis=0).max())
    orders, signs = _AXIS_MAPS[pts.shape[1]]
    images = (centred[:, orders] * signs).transpose(1, 0, 2)
    # hit[g, i, j]: map g takes point i onto point j, of the same prior. The
    # points are distinct, so g is a symmetry when every point hits one.
    gap = np.abs(images[:, :, None, :] - centred[None, None, :, :]).max(axis=-1)
    hit = (gap <= tol) & (pri[:, None] == pri[None, :])
    symmetric = hit[hit.any(axis=2).all(axis=1)]
    # The lowest index any symmetry takes k to represents k's orbit.
    rep = symmetric.argmax(axis=2).min(axis=0)
    mass = np.bincount(rep, weights=pri)
    return [(int(r), float(mass[r])) for r in np.flatnonzero(mass)]


def gaussian_mixture_entropy_simpson(
    means, priors, var_per_dim: float, tol: float = 1e-12, tail_sigmas: float = 12.0
) -> float:
    """Adaptive-Simpson evaluation of the 1-D mixture entropy, in bits.

    Independent cross-check of :func:`constellation_mi`, whose rate on a 1-D
    alphabet is this entropy less :func:`noise_entropy`. Integrates
    -p(y) log2 p(y) over [min(means) - k*sigma, max(means) + k*sigma]; where
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

    lo = float(means.min()) - tail_sigmas * sig
    hi = float(means.max()) + tail_sigmas * sig
    return _adaptive_simpson(f, lo, hi, tol)


def _adaptive_simpson(f, a: float, b: float, tol: float, max_depth: int = 48) -> float:
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
        if depth >= max_depth or abs(delta) <= 15.0 * tol:
            return left + right + delta / 15.0
        return recurse(a, fa, m, fm, lm, flm, left, 0.5 * tol, depth + 1) + recurse(
            m, fm, b, fb, rm, frm, right, 0.5 * tol, depth + 1
        )

    return recurse(a, fa, b, fb, m, fm, whole, tol, 0)


def bpsk_mi(amplitude: float, noise: NoiseModel, order: int = _MAX_ORDER) -> float:
    """Mutual information, in bits, of antipodal signaling {+A, -A} with
    equal priors over real AWGN of the given variance v.

    The rate depends only on q = A / sqrt(v). Given X = +A, the output is
    Y = A + n, and I = 1 - E_n[log2(1 + exp(u))] with u = -2A(A + n)/v, the
    log-likelihood ratio against the other point. With n = sqrt(2v) t on the
    1-D rule of :func:`_unit_rule` (nodes t, weights w summing to 1),

        I = -sum_i w_i f(u_i) / ln 2,   u = -2q(q + sqrt(2) t),
        f(u) = log1p(expm1(u) / 2) = max(u, 0) + log1p(expm1(-|u|) / 2).

    This is :func:`_rate_nats` on {+A, -A}, where L_k = f(u) with the shift
    c = max(0, u), written out for its cost: 15-17 us a call against 106-120
    us through :func:`constellation_mi`, 59 us of which is the symmetry
    search (best of 7, A = 0.01..3, v = 0.5). No two entropies cancel, so
    the rate keeps its relative accuracy at low SNR, where
    I = (s/2 - s^2/4 + s^3/6 - ...) / ln 2 with s = q^2 (within 1e-12
    relative down to s = 1e-8). Below that the quadrature would lose about
    1e-16 / q relative to rounding, so for s <= 1e-8 the rate is this
    three-term series, whose dropped terms are below 5e-25 relative. The
    result is clamped into [0, 1], and is 1 once q is too large for q^2 to
    be formed. Amplitude 0 is the degenerate no-information case.
    """
    amplitude = _real("amplitude", amplitude, at_least=0.0)
    if amplitude == 0.0:
        return 0.0
    nodes, w = _unit_rule(order, 1)
    q = amplitude / math.sqrt(noise.variance)
    if q > _Q_SATURATED:
        return 1.0
    s = q * q
    if s <= _SERIES_MAX_S:
        return s * (0.5 - s * (0.25 - s / 6.0)) / _LN2
    u = -2.0 * q * (q + _SQRT2 * nodes[0])
    f = np.maximum(u, 0.0) + np.log1p(np.expm1(-np.abs(u)) / 2.0)
    return min(1.0, max(0.0, -float(np.dot(w, f)) / _LN2))


def constellation_mi(c: Constellation, noise: NoiseModel, order: int | None = None) -> float:
    """Mutual information I(X; Y), in bits, of a finite constellation over AWGN.

    The noise variance is split equally across the constellation's real
    dimensions: 1-D constellations see it as given; 2-D constellations treat
    it as total complex noise power, variance/2 per real dimension. The
    default order per dimension is 256 in 1-D and 192 in 2-D.
    The rate kernel :func:`_rate_nats` forms I directly, on the
    constellation's own checked points and priors, so the rate keeps its
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
    if order is None:
        order = _DEFAULT_ORDER[d]
    rate = _rate_nats(c.as_array(), c.priors, noise.variance / d, order) / _LN2
    return min(math.log2(len(c.points)), max(0.0, rate))
