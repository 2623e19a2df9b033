"""The cocktail BPSK scheme: amplitude mapping, two-stage detection, energy
accounting, and the composite achievable-data-rate formulas.

Two independent antipodal symbol streams x1, x2 in {+1, -1} share one real
transmitted amplitude per channel use. When the symbols agree (case I) the
transmitter sends alpha * x1; when they disagree (case II) it sends
(beta / 2) * x1. The receiver first decides x1 from the raw sample y1, then
forms y2 = y1 - beta * x1_hat and decides x2 from its sign. With
alpha > beta > 0 the noise-free mapping is uniquely invertible:

    x1  x2   transmitted      y2 (noise-free)
    +1  +1      +alpha         +(alpha - beta)
    -1  -1      -alpha         -(alpha - beta)
    -1  +1      -beta/2        +beta/2
    +1  -1      +beta/2        -beta/2

The scheme occupies one real dimension of a complex channel whose total
noise power is ``NoiseModel.variance``, so each detection stage sees
variance/2, the package's one noise rule.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .mi import LOG2E, NoiseModel, _LN2, _is_integer, _real, bpsk_mi

__all__ = [
    "CocktailParams",
    "SymbolPair",
    "EnergyReport",
    "AdrBreakdown",
    "ALL_PAIRS",
    "encode",
    "detect",
    "energy_report",
    "adr_breakdown",
    "adr_gain_low_snr",
    "eb_over_n0",
]


@dataclass(frozen=True)
class CocktailParams:
    """Scheme parameters: case-I amplitude alpha and detection offset beta
    (case-II amplitude beta/2).

    Construction enforces alpha > beta > 0 strictly. The two streams are
    independent and equiprobable, so each case occurs with probability 1/2;
    that split is part of the scheme, not a parameter.
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        alpha = _real("alpha", self.alpha)
        beta = _real("beta", self.beta)
        _check_amplitudes(alpha, beta)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @property
    def ratio(self) -> float:
        return self.alpha / self.beta

    @classmethod
    def from_ratio(cls, ratio: float, input_energy: float, eta: float = 0.5) -> "CocktailParams":
        """Solve (alpha, beta) from an amplitude ratio and a target mean
        input energy (alpha^2 + (beta/2)^2) / 2, i.e.
        beta = sqrt(2*E_in / (ratio^2 + 1/4)).

        ``eta`` is the case-I probability; only the scheme's 1/2 is accepted.
        Each value is checked once: the two arguments by the package's rule,
        then the derived amplitudes, which are plain floats already, for
        what the constructor would still refuse.

        Every ratio > 1 and energy > 0 up to the largest float is served,
        on one path in units of powers of two, so neither ratio^2 nor the
        quotient overflows or loses digits to the subnormal range: with
        ratio = m 2^a and k = floor(e/2) for E_in's binary exponent e,
        s = sqrt(E_in 4^-k / (m^2/2 + 4^-a/8)), beta = s 2^(k-a) and
        alpha = (m s) 2^k. Each operand is the plain formula's times an exact
        power of two, so wherever E_in / (ratio^2/2 + 1/8) is a normal float
        the bits are those of sqrt of that quotient and ratio * beta. beta is
        within 2 ulp of the exact root wherever it is normal; alpha, rounded
        once more by the product, reads up to about 2.04 ulp. A pair is
        refused only where beta is below the least subnormal float, so that
        it rounds to 0.
        """
        if _real("eta", eta) != 0.5:
            raise ValueError(f"the case split is fixed at eta = 0.5, got eta={eta!r}")
        ratio = _real("ratio", ratio, above=1.0)
        input_energy = _real("input_energy", input_energy, above=0.0)
        k = math.frexp(input_energy)[1] // 2
        m, a = math.frexp(ratio)
        s = math.sqrt(math.ldexp(input_energy, -2 * k) / (0.5 * m * m + math.ldexp(0.125, -2 * a)))
        beta = math.ldexp(s, k - a)
        alpha = math.ldexp(m * s, k)
        _check_amplitudes(alpha, beta)
        params = object.__new__(cls)
        object.__setattr__(params, "alpha", alpha)
        object.__setattr__(params, "beta", beta)
        return params


def _check_amplitudes(alpha: float, beta: float) -> None:
    if not alpha > beta > 0.0:
        raise ValueError(f"amplitudes must satisfy alpha > beta > 0, got alpha={alpha}, beta={beta}")


@dataclass(frozen=True)
class SymbolPair:
    """One symbol from each stream; both entries the integer +1 or -1."""

    x1: int
    x2: int

    def __post_init__(self) -> None:
        for name in ("x1", "x2"):
            v = getattr(self, name)
            if not (_is_integer(v) and v in (1, -1)):
                raise ValueError(f"{name} must be +1 or -1, got {v!r}")
            object.__setattr__(self, name, int(v))


ALL_PAIRS = (SymbolPair(1, 1), SymbolPair(-1, -1), SymbolPair(-1, 1), SymbolPair(1, -1))


@dataclass(frozen=True)
class EnergyReport:
    """Per-symbol energy accounting of both detection stages.

    The identities e_in == e1, e_total == e1 + e2 and delta_e == e2 hold
    exactly by construction.
    """

    e_in: float
    e1: float
    e2: float
    e_total: float
    delta_e: float


@dataclass(frozen=True)
class AdrBreakdown:
    """Per-stream achievable data rates and their sum, in bits."""

    r1: float
    r2: float
    total: float


def _sign(y: float) -> int:
    # Deterministic tie-break: sign(0) maps to +1 (measure-zero event).
    return 1 if y >= 0.0 else -1


def encode(pair: SymbolPair, params: CocktailParams) -> float:
    """Transmitted amplitude for one symbol pair.

    alpha * x1 when the symbols agree, (beta / 2) * x1 when they disagree.
    """
    if pair.x1 == pair.x2:
        return params.alpha * pair.x1
    return 0.5 * params.beta * pair.x1


def detect(y1: float, params: CocktailParams) -> tuple[int, float, int]:
    """Two-stage detection of one receive sample.

    Returns (x1_hat, y2, x2_hat) with x1_hat = sign(y1),
    y2 = y1 - beta * x1_hat and x2_hat = sign(y2). Ties at exactly zero
    resolve to +1. Noise-free samples produced by :func:`encode` recover the
    original pair for every one of the 4 combinations.
    """
    y1 = _real("y1", y1)
    x1_hat = _sign(y1)
    y2 = y1 - params.beta * x1_hat
    return x1_hat, y2, _sign(y2)


def energy_report(params: CocktailParams) -> EnergyReport:
    """Mean per-symbol energies of the two stages.

    Each case occurs with probability 1/2. e1 is the transmitted (input)
    energy (alpha^2 + (beta/2)^2) / 2; e2 is the energy available to the
    second stage, ((alpha-beta)^2 + (beta/2)^2) / 2, which equals the total
    minus the input, i.e. the reused energy. An energy beyond the float
    range reads inf.
    """
    e1, e2 = _energies(params.alpha, params.beta)
    return EnergyReport(e_in=e1, e1=e1, e2=e2, e_total=e1 + e2, delta_e=e2)


def _energies(alpha: float, beta: float) -> tuple:
    """(e1, e2) of :func:`energy_report` for amplitudes alpha > beta,
    squared by product, half first, so that a square past the float range
    gives inf where ``x ** 2`` would raise OverflowError."""
    h = 0.5 * beta
    return 0.5 * alpha * alpha + 0.5 * h * h, 0.5 * (alpha - beta) * (alpha - beta) + 0.5 * h * h


def _unit_energies(params: CocktailParams) -> tuple:
    """(k, e1, e2): the exponent k that :func:`math.frexp` gives alpha, and
    the energies of :func:`energy_report` at the amplitudes in units of
    2^k, where alpha lies in [0.5, 1), so that no energy overflows or
    underflows to 0."""
    _, k = math.frexp(params.alpha)
    return (k, *_energies(math.ldexp(params.alpha, -k), math.ldexp(params.beta, -k)))


def _energies_over_noise(params: CocktailParams, noise: NoiseModel) -> tuple:
    """(e1, e2) of :func:`energy_report` over ``noise.variance``, each a
    float wherever the ratio is one, though an energy or the variance may
    not be. The energies are those of :func:`_unit_energies`, at amplitudes
    in units of 2^k, divided by the variance in units of 2^j, j the
    exponent :func:`math.frexp` gives it; both quotients lie in
    [0.025, 1.25], and a scale of 2^(2k - j), applied as two powers of two
    that stay floats, takes them back. A power of two scales exactly, so
    wherever the ratio is a normal float it has the bits of e / variance."""
    k, e1, e2 = _unit_energies(params)
    unit_var, j = math.frexp(noise.variance)
    n = max(-2000, min(2 * k - j, 2000))  # beyond, 2^n takes both quotients to 0 or inf
    up, down = math.ldexp(1.0, n // 2), math.ldexp(1.0, n - n // 2)
    return e1 / unit_var * up * down, e2 / unit_var * up * down


def adr_breakdown(params: CocktailParams, noise: NoiseModel) -> AdrBreakdown:
    """Achievable data rates of both streams, in bits.

    Each stage is an equally weighted pair of antipodal detections: stage 1 at
    amplitudes alpha and beta/2, stage 2 (with the first stream known) at
    amplitudes alpha - beta and beta/2, each over one real dimension of
    ``noise``.
    """
    r_half_beta = bpsk_mi(0.5 * params.beta, noise)
    r1 = 0.5 * bpsk_mi(params.alpha, noise) + 0.5 * r_half_beta
    r2 = 0.5 * bpsk_mi(params.alpha - params.beta, noise) + 0.5 * r_half_beta
    return AdrBreakdown(r1=r1, r2=r2, total=r1 + r2)


def adr_gain_low_snr(params: CocktailParams, noise: NoiseModel) -> float:
    """Low-SNR rate gain over capacity, (delta_e / variance) * log2(e) bits.

    First-order approximation; only meaningful for e_in / variance << 1.
    """
    return _energies_over_noise(params, noise)[1] * LOG2E


def eb_over_n0(params: CocktailParams, noise: NoiseModel) -> float:
    """Energy per information bit over noise power, (e_in / variance) / total.

    This is the horizontal-axis quantity of the decibel rate plots, by the
    package's one rule, :func:`_eb_over_n0`: where the total rate is below
    the smallest normal float it is the low-SNR limit ln 2 e1 / e_total =
    ln 2 (alpha^2 + beta^2 / 4) / (alpha^2 + (alpha - beta)^2 + beta^2 / 2),
    and wherever the total is a normal float it is (e_in / variance) /
    total, with e_in / variance from ``_energies_over_noise``. Both are
    formed from the energies at amplitudes in units of 2^k, k the exponent
    of alpha, so they are within a few roundings of the exact values for
    every alpha and variance. Zero amplitudes, which :class:`CocktailParams`
    refuses, raise ZeroDivisionError.
    """
    return _eb_over_n0(_energies_over_noise(params, noise)[0], adr_breakdown(params, noise).total, params)


def _eb_over_n0(energy: float, rate: float, params: CocktailParams | None = None) -> float:
    """Eb/N0, the one rule of every Eb/N0 the package forms: ``energy``, a
    symbol energy over the noise power, per bit of ``rate``, energy / rate.

    Where the rate is below the smallest normal float it has lost digits or
    underflowed to 0, but the point is on its low-SNR series, whose Eb/N0
    is the limit to every digit, and that limit is returned: ln 2 for
    capacity and every zero-mean alphabet (``params`` None), and
    ln 2 e1 / e_total for the cocktail point of amplitudes ``params``, every
    stage then on its series, with s below 2^-1000. So a rate of 0, the
    rate at zero SNR, gives the limit itself.
    """
    if rate < sys.float_info.min:
        if params is None:
            return _LN2
        _, e1, e2 = _unit_energies(params)
        return _LN2 * e1 / (e1 + e2)
    return energy / rate
