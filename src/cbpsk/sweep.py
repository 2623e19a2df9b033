"""Experiment orchestration: SNR grids, amplitude-ratio sweeps, and the
rate-curve datasets behind the capacity-comparison figures.

All rates are evaluated at a reference total noise power of 1, so the grid
value rho is both the linear SNR and the mean symbol energy. Axis modes:
"linear_snr" uses rho itself as the abscissa; "eb_n0_db" uses
10*log10(rho / rate), the per-information-bit SNR implied by each point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cocktail import CocktailParams, adr_breakdown
from .mi import Constellation, NoiseModel, _integer, _real, awgn_capacity, constellation_mi

__all__ = [
    "CONVENTIONAL_SCHEMES",
    "DEFAULT_RATIOS",
    "SweepSpec",
    "RateCurve",
    "log_grid",
    "scheme_rate",
    "modulation_rate_curves",
    "cocktail_rate_curves",
    "cocktail_gain_curves",
    "sweep_to_table",
]

CONVENTIONAL_SCHEMES = ("capacity", "bpsk", "qpsk", "4ask", "8psk")
AXIS_MODES = ("linear_snr", "eb_n0_db")
DEFAULT_RATIOS = (1.5, 2.5, 3.5, 5.0)

# The reference channel: total complex noise power 1, so each real
# dimension carries variance 1/2.
_TOTAL_NOISE = 1.0
_REFERENCE_NOISE = NoiseModel(_TOTAL_NOISE)
_CONSTELLATIONS = {
    "bpsk": Constellation.bpsk(),
    "qpsk": Constellation.qpsk(),
    "4ask": Constellation.ask4(),
    "8psk": Constellation.psk8(),
}


@dataclass(frozen=True)
class SweepSpec:
    """A sweep request: SNR grid, amplitude ratios, scheme set, axis mode."""

    snr_grid: tuple
    ratios: tuple = DEFAULT_RATIOS
    schemes: tuple = CONVENTIONAL_SCHEMES
    axis_mode: str = "linear_snr"

    def __post_init__(self) -> None:
        grid = tuple(_real("snr_grid", r, above=0.0) for r in _entries("snr_grid", self.snr_grid))
        if not grid:
            raise ValueError("snr_grid must be nonempty")
        if not _ascending(grid):
            raise ValueError("snr_grid must be strictly ascending")
        ratios = tuple(_real("ratios", r, above=1.0) for r in _entries("ratios", self.ratios))
        if not _distinct(ratios):
            raise ValueError(f"ratios must differ in the 12 significant digits a label prints, got {ratios!r}")
        schemes = _entries("schemes", self.schemes)
        unknown = [s for s in schemes if s not in CONVENTIONAL_SCHEMES]
        if unknown:
            raise ValueError(f"unknown schemes {unknown}; valid schemes: {CONVENTIONAL_SCHEMES}")
        if self.axis_mode not in AXIS_MODES:
            raise ValueError(f"axis_mode must be one of {AXIS_MODES}, got {self.axis_mode!r}")
        object.__setattr__(self, "snr_grid", grid)
        object.__setattr__(self, "ratios", ratios)
        object.__setattr__(self, "schemes", schemes)


def _entries(name: str, values) -> tuple:
    """The entries of ``values`` as a tuple; ValueError naming ``name`` if it
    cannot be iterated."""
    try:
        return tuple(values)
    except TypeError:
        raise ValueError(f"{name} must be a sequence, got {values!r}") from None


@dataclass(frozen=True)
class RateCurve:
    """A labeled list of (axis value, rate) rows, strictly ascending in axis.

    ``rows`` holds (x, y) pairs of numbers by the package's rule, stored as a
    tuple of pairs of plain floats.
    """

    label: str
    rows: tuple

    def __post_init__(self) -> None:
        rows = tuple((_real("rows", x), _real("rows", y)) for x, y in _pairs(self.rows))
        if any(b[0] <= a[0] for a, b in zip(rows, rows[1:])):
            raise ValueError(f"curve {self.label!r}: axis values must be strictly ascending")
        object.__setattr__(self, "rows", rows)

    @property
    def xs(self) -> tuple:
        return tuple(r[0] for r in self.rows)

    @property
    def ys(self) -> tuple:
        return tuple(r[1] for r in self.rows)


def _pairs(rows) -> list:
    """``rows`` as a list of 2-tuples; ValueError naming rows if it is not
    an iterable of pairs."""
    try:
        pairs = [tuple(r) for r in rows]
    except TypeError:
        pairs = None
    if pairs is None or any(len(p) != 2 for p in pairs):
        raise ValueError(f"rows must be a sequence of (x, y) pairs, got {rows!r}")
    return pairs


def log_grid(start: float, stop: float, count: int) -> tuple:
    """A log-spaced grid of ``count`` points from start to stop inclusive,
    strictly ascending: a ``count`` too large for the range to hold that many
    distinct floats raises ValueError naming it."""
    start = _real("start", start, above=0.0)
    stop = _real("stop", stop, above=start)
    grid = _log_points(start, stop, _integer("count", count, 1))
    if not _ascending(grid):
        raise ValueError(f"count {count!r} repeats points between {start!r} and {stop!r}; use fewer points")
    return grid


def _log_points(start: float, stop: float, count: int) -> tuple:
    """``count`` log-spaced points from ``start`` to ``stop``, both > 0, unchecked."""
    if count == 1:
        return (start,)
    step = (math.log10(stop) - math.log10(start)) / (count - 1)
    return tuple(10.0 ** (math.log10(start) + i * step) for i in range(count))


def _ascending(grid: tuple) -> bool:
    """Whether each point of ``grid`` is above the one before it."""
    return all(a < b for a, b in zip(grid, grid[1:]))


def _distinct(ratios: tuple) -> bool:
    """Whether no two ``ratios`` print alike to the 12 significant digits
    of the curve labels, the CSV numbers and the ``limit`` lines."""
    return len({f"{r:.12g}" for r in ratios}) == len(ratios)


def scheme_rate(scheme: str, snr_linear: float) -> float:
    """Rate, in bits/sec/Hz, of one conventional scheme at symbol SNR rho.

    The symbol energy is rho on the reference channel, so the unit-energy
    alphabet is evaluated as declared at total noise power 1/rho, 1/(2 rho)
    on each real dimension. At subnormal rho (below about 5.6e-309) the
    noise variance overflows, and ``ValueError`` is raised.
    """
    snr_linear = _real("snr_linear", snr_linear, at_least=0.0)
    if scheme == "capacity":
        return awgn_capacity(snr_linear)
    try:
        base = _CONSTELLATIONS[scheme]
    except KeyError:
        raise ValueError(f"unknown scheme {scheme!r}; valid schemes: {CONVENTIONAL_SCHEMES}") from None
    if snr_linear == 0.0:
        return 0.0
    variance = 1.0 / snr_linear
    if math.isinf(variance):
        raise ValueError(f"snr_linear is too small for a finite noise variance, got {snr_linear!r}")
    return constellation_mi(base, NoiseModel(variance))


def _axis_value(axis_mode: str, rho: float, rate: float) -> float:
    if axis_mode == "linear_snr":
        return rho
    if rate <= 0.0:
        raise ZeroDivisionError(f"rate underflowed at rho={rho}; Eb/N0 axis undefined")
    return 10.0 * math.log10(rho / rate)


def _curve(label: str, spec: SweepSpec, rate_at) -> RateCurve:
    # Callers pass lambdas that look rate functions up in module globals at
    # call time, so wrappers swapped onto module attributes see every call.
    rows = []
    for rho in spec.snr_grid:
        rate = rate_at(rho)
        rows.append((_axis_value(spec.axis_mode, rho, rate), rate))
    return RateCurve(label, tuple(rows))


def modulation_rate_curves(spec: SweepSpec) -> list:
    """Rate curves of the conventional schemes (and capacity) over the grid."""
    return [_curve(s, spec, lambda rho, s=s: scheme_rate(s, rho)) for s in spec.schemes]


def _cocktail_total(ratio: float, rho: float) -> float:
    # Same mean input energy as the comparison schemes: E_in = rho * noise.
    params = CocktailParams.from_ratio(ratio, rho * _TOTAL_NOISE)
    return adr_breakdown(params, _REFERENCE_NOISE).total


def _cocktail_curves(spec: SweepSpec) -> list:
    if not spec.ratios:
        raise ValueError("ratios must be nonempty")
    return [_curve(f"cocktail r={r:.12g}", spec, lambda rho, r=r: _cocktail_total(r, rho)) for r in spec.ratios]


def cocktail_rate_curves(spec: SweepSpec) -> list:
    """Cocktail total-rate curves per amplitude ratio, plus any reference
    curves ("capacity", "bpsk") present in the scheme set."""
    cocktails = _cocktail_curves(spec)
    refs = [
        _curve(ref, spec, lambda rho, ref=ref: scheme_rate(ref, rho))
        for ref in ("capacity", "bpsk")
        if ref in spec.schemes
    ]
    return refs + cocktails


def cocktail_gain_curves(spec: SweepSpec) -> list:
    """Curves of (cocktail total rate - capacity) per amplitude ratio; each
    row keeps the axis value of its cocktail rate row."""
    return [
        RateCurve(
            f"gain r={ratio:.12g}",
            tuple((x, total - awgn_capacity(rho)) for (x, total), rho in zip(curve.rows, spec.snr_grid)),
        )
        for ratio, curve in zip(spec.ratios, _cocktail_curves(spec))
    ]


def sweep_to_table(curves) -> list:
    """Flatten curves into long-format (label, axis, value) rows, losslessly."""
    return [(c.label, x, y) for c in curves for x, y in c.rows]

