"""Experiment orchestration: SNR grids, amplitude-ratio sweeps, and the
rate-curve datasets behind the capacity-comparison figures.

All rates are evaluated at a reference total noise power of 1, so the grid
value rho is both the linear SNR and the mean symbol energy. Axis modes:
"linear_snr" uses rho itself as the abscissa; "eb_n0_db" uses
10*log10(rho / rate), the per-information-bit SNR implied by each point,
and where the rate is below the smallest normal float, the low-SNR limit
of that quotient.

One row builder, ``_rows``, forms the rows of every scheme and cocktail
curve from its rates. A conventional scheme's rates are one call of the
rate kernel over the whole grid, which reads the alphabet's plan once, and
:func:`scheme_rate` is the one-point case of that call, so each row keeps
the bits of :func:`scheme_rate` at its point. A cocktail curve's totals
are computed point by point.

Each curve has one row per grid point, in grid order. The grid is checked
strictly ascending, and that is the one order rule: x need not ascend. On
the Eb/N0 axis a curve may stay flat at its low-SNR limit, or turn back
where its least Eb/N0 lies above zero SNR.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .cocktail import CocktailParams, _low_snr_eb_over_n0, adr_breakdown
from .mi import (
    _LN2,
    Constellation,
    NoiseModel,
    _constellation_rates,
    _integer,
    _real,
    awgn_capacity,
)

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
    """A labeled list of (axis value, rate) rows, in the order given.

    ``rows`` holds (x, y) pairs of numbers by the package's rule, stored as a
    tuple of pairs of plain floats. Every curve the package builds has one
    row per point of its :class:`SweepSpec` grid, in grid order, and the
    grid is the one that must ascend: x need not. On the Eb/N0 axis x is
    derived from the grid point and its rate, and may stay flat at its
    low-SNR limit or turn back. A caller that needs rho per row zips
    ``rows`` with the grid.
    """

    label: str
    rows: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple((_real("rows", x), _real("rows", y)) for x, y in _pairs(self.rows)))

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
    """A log-spaced grid of ``count`` points from start > 0 to stop > start,
    strictly ascending, whose first and last points are exactly ``start``
    and ``stop``. It is :func:`_grid`, the one builder of every SNR grid of
    the package, ``cbpsk --grid`` included: a bad argument, or a ``count``
    too large for the range to hold that many distinct floats, raises
    ValueError naming it."""
    return _grid(start, stop, count, log=True)


def _grid(start: float, stop: float, count: int, log: bool) -> tuple:
    """``count`` points from ``start`` to ``stop``, evenly spaced in log10
    when ``log`` holds and linearly otherwise. The first and last points are
    ``start`` and ``stop`` themselves (one point is ``start``), and only the
    inner points are computed, so none lies beyond the range of floats: an
    inner log point that rounds past it cannot lie below ``stop``, and is
    refused as a repeat. ``start`` must be > 0 on a log grid and >= 0 on a
    lin one, ``stop`` > ``start``, ``count`` >= 1, and the points strictly
    ascending; anything else raises ValueError naming the argument."""
    start = _real("start", start, **({"above": 0.0} if log else {"at_least": 0.0}))
    stop = _real("stop", stop, above=start)
    count = _integer("count", count, 1)
    a, b = (math.log10(start), math.log10(stop)) if log else (start, stop)
    step = (b - a) / max(count - 1, 1)
    try:
        inner = tuple(10.0 ** (a + i * step) if log else a + i * step for i in range(1, count - 1))
    except OverflowError:  # a point past the float range lies past stop
        inner = (stop,)
    grid = (start, *inner, stop)[:count]
    if not _ascending(grid):
        raise ValueError(f"count {count!r} repeats points between {start!r} and {stop!r}, "
                         "so the grid is not strictly ascending; use fewer points")
    return grid


def _ascending(grid: tuple) -> bool:
    """Whether each point of ``grid`` is above the one before it."""
    return all(a < b for a, b in zip(grid, grid[1:]))


def _distinct(ratios: tuple) -> bool:
    """Whether no two ``ratios`` print alike to the 12 significant digits
    of the curve labels, the CSV numbers and the ``limit`` lines."""
    return len({f"{r:.12g}" for r in ratios}) == len(ratios)


def scheme_rate(scheme: str, snr_linear: float) -> float:
    """Rate, in bits/sec/Hz, of one conventional scheme at symbol SNR rho:
    the one-point curve, :func:`_scheme_rates` at rho alone.

    The symbol energy is rho on the reference channel, so the unit-energy
    alphabet is evaluated as declared at total noise power 1/rho, 1/(2 rho)
    on each real dimension. At subnormal rho (below about 5.6e-309) the
    noise variance overflows, and ``ValueError`` is raised.
    """
    return _scheme_rates(scheme, (_real("snr_linear", snr_linear, at_least=0.0),))[0]


def _scheme_rates(scheme: str, grid) -> list:
    """The rates of ``scheme`` at each point of ``grid``, checked >= 0 and
    ascending: capacity point by point, and any other scheme from one
    :func:`cbpsk.mi._constellation_rates` call on the reference variances
    1 / rho, which reads the alphabet's plan once; 0 at rho = 0, which can
    only lead the grid. An unknown scheme, or a point whose variance
    overflows (the first point > 0, the smallest), raises ValueError."""
    if scheme == "capacity":
        return [awgn_capacity(rho) for rho in grid]
    try:
        base = _CONSTELLATIONS[scheme]
    except KeyError:
        raise ValueError(f"unknown scheme {scheme!r}; valid schemes: {CONVENTIONAL_SCHEMES}") from None
    variances = [1.0 / rho for rho in grid if rho]
    zeros = len(grid) - len(variances)
    if variances and math.isinf(variances[0]):
        raise ValueError(f"snr_linear is too small for a finite noise variance, got {grid[zeros]!r}")
    return [0.0] * zeros + _constellation_rates(base, variances)


def _axis_value(axis_mode: str, rho: float, rate: float, params: CocktailParams | None) -> float:
    """The abscissa of a row of rate ``rate`` at grid point ``rho``; on the
    Eb/N0 axis, ``params`` names a cocktail point's amplitudes, and None a
    conventional scheme or capacity."""
    if axis_mode == "linear_snr":
        return rho
    if rate < sys.float_info.min:
        # The rate has lost digits or is 0, and the point is on its low-SNR
        # series, whose Eb/N0 is the limit to every digit: ln 2 for capacity
        # and for every zero-mean, unit-energy scheme, and eb_over_n0's for
        # a cocktail point.
        return 10.0 * math.log10(_LN2 if params is None else _low_snr_eb_over_n0(params))
    return 10.0 * math.log10(rho / rate)


def _rows(spec: SweepSpec, rates, params=None) -> list:
    """The one row builder: the (axis value, rate) rows of ``rates`` over
    the grid of ``spec``. ``params`` holds a cocktail curve's amplitudes at
    each point, and None marks a conventional scheme or capacity."""
    params = params or [None] * len(rates)
    return [(_axis_value(spec.axis_mode, rho, rate, p), rate) for rho, rate, p in zip(spec.snr_grid, rates, params)]


def _scheme_curve(scheme: str, spec: SweepSpec) -> RateCurve:
    """The curve of ``scheme`` over the grid of ``spec``."""
    return RateCurve(scheme, _rows(spec, _scheme_rates(scheme, spec.snr_grid)))


def modulation_rate_curves(spec: SweepSpec) -> list:
    """Rate curves of the conventional schemes (and capacity) over the grid."""
    return [_scheme_curve(s, spec) for s in spec.schemes]


def _cocktail_curves(spec: SweepSpec) -> list:
    if not spec.ratios:
        raise ValueError("ratios must be nonempty")
    curves = []
    for r in spec.ratios:
        # Same mean input energy as the comparison schemes: E_in = rho * noise.
        params = [CocktailParams.from_ratio(r, rho * _TOTAL_NOISE) for rho in spec.snr_grid]
        # adr_breakdown is looked up in the module's globals at each call, so
        # a wrapper swapped onto that attribute sees every point.
        totals = [adr_breakdown(p, _REFERENCE_NOISE).total for p in params]
        curves.append(RateCurve(f"cocktail r={r:.12g}", _rows(spec, totals, params)))
    return curves


def cocktail_rate_curves(spec: SweepSpec) -> list:
    """Cocktail total-rate curves per amplitude ratio, plus any reference
    curves ("capacity", "bpsk") present in the scheme set."""
    cocktails = _cocktail_curves(spec)
    return [_scheme_curve(ref, spec) for ref in ("capacity", "bpsk") if ref in spec.schemes] + cocktails


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

