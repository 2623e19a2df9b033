"""Independent oracles the benchmark checks the program's outputs against.

Rates are checked outside the timed region by one of these routes, none of
which calls the Gauss-Hermite kernels at check time:

* adaptive Simpson integration of the 1-D mixture entropy
  (``cbpsk.mi.gaussian_mixture_entropy_simpson``), valid while adjacent
  constellation points are at most ``SIMPSON_MAX_SEPARATION`` noise standard
  deviations apart on each side (beyond that its initial samples all land in
  underflowed tails and it returns garbage);
* for wider separations, Fano's inequality with the nearest-neighbour error
  probability, which pins the rate within a computed distance of log2(M);
* closed forms (capacity), and for the 2-D schemes the committed reference
  table, whose values were cross-checked when it was generated (see
  ``make_reference.py``).

The Monte Carlo workload instead compares the simulator with the kernels, as
the two independent routes to the same rate.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from cbpsk import mi

# Hermite-vs-Simpson discrepancy stays below 5e-10 bits over the whole 1-D
# range the workloads use (scanned over separations 0.5..8 sigma); the
# package documents 1e-9 as its accuracy, which is the tolerance used here.
KERNEL_TOL_BITS = 1e-9
SIMPSON_MAX_SEPARATION = 8.0

# Per-dimension noise variance of the reference channel (total power 1),
# as the sweeps and cocktail rates use it.
STAGE_VARIANCE = 0.5

REFERENCE_PATH = Path(__file__).resolve().parent / "reference" / "modcurves.json"


def _q(u: float) -> float:
    return 0.5 * math.erfc(u / math.sqrt(2.0))


def _h2(p: float) -> float:
    if p <= 0.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def pam_mi(points, variance: float) -> tuple[float, float]:
    """Oracle for the equiprobable 1-D alphabet ``points`` over real AWGN.

    Returns (rate in bits, error bound in bits of the oracle itself).
    """
    pts = np.sort(np.asarray(points, dtype=float))
    m = len(pts)
    sigma = math.sqrt(variance)
    u = float(np.min(np.diff(pts))) / (2.0 * sigma)
    if u <= SIMPSON_MAX_SEPARATION:
        h_y = mi.gaussian_mixture_entropy_simpson(pts, np.full(m, 1.0 / m), variance)
        return float(h_y - mi.noise_entropy(mi.NoiseModel(variance))), 1e-11
    pe = min(1.0, 2.0 * _q(u))
    return math.log2(m), _h2(pe) + pe * math.log2(m - 1)


def bpsk_mi(amplitude: float, variance: float) -> tuple[float, float]:
    if amplitude == 0.0:
        return 0.0, 0.0
    return pam_mi((amplitude, -amplitude), variance)


def scheme_rate(scheme: str, rho: float) -> tuple[float, float]:
    """Oracle for ``cbpsk.sweep.scheme_rate`` on the 1-D schemes and capacity."""
    if scheme == "capacity":
        return math.log2(1.0 + rho), 0.0
    a = math.sqrt(rho)
    if scheme == "bpsk":
        return bpsk_mi(a, STAGE_VARIANCE)
    if scheme == "4ask":
        s = a / math.sqrt(5.0)
        return pam_mi((-3 * s, -s, s, 3 * s), STAGE_VARIANCE)
    raise ValueError(f"no 1-D oracle for scheme {scheme!r}")


def cocktail_params(ratio: float, energy: float) -> tuple[float, float]:
    """(alpha, beta) with alpha/beta = ratio and mean energy
    (alpha^2 + (beta/2)^2) / 2 = energy, the paper's equiprobable mapping."""
    beta = math.sqrt(2.0 * energy / (ratio * ratio + 0.25))
    return ratio * beta, beta


def cocktail_rates(alpha: float, beta: float) -> tuple[float, float, float]:
    """Oracle (r1, r2, error bound on r1 + r2) of both streams on the
    reference channel: case-weighted antipodal detections at amplitudes
    (alpha, beta/2) and (alpha - beta, beta/2)."""
    i_a, e_a = bpsk_mi(alpha, STAGE_VARIANCE)
    i_h, e_h = bpsk_mi(0.5 * beta, STAGE_VARIANCE)
    i_d, e_d = bpsk_mi(alpha - beta, STAGE_VARIANCE)
    r1 = 0.5 * (i_a + i_h)
    r2 = 0.5 * (i_d + i_h)
    return r1, r2, 0.5 * (e_a + e_d) + e_h


def within(got: float, want: float, tol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= tol


def load_reference() -> dict:
    """The committed modulation-curve table: {"grid": [...], "rows":
    {scheme: [[rho, x_db, rate, bound], ...]}} on the 60-point log grid."""
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)
