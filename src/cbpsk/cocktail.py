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

Rates follow the per-dimension noise convention of this package: the scheme
occupies one real dimension of a complex channel whose total noise power is
``NoiseModel.variance``, so each detection stage sees variance/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .mi import LOG2E, NoiseModel, bpsk_mi

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
        for name in ("alpha", "beta"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ValueError(f"{name} must be a finite number, got {v!r}")
            object.__setattr__(self, name, float(v))
        if not self.alpha > self.beta > 0.0:
            raise ValueError(
                f"amplitudes must satisfy alpha > beta > 0, got alpha={self.alpha}, beta={self.beta}"
            )

    @property
    def ratio(self) -> float:
        return self.alpha / self.beta

    @classmethod
    def from_ratio(cls, ratio: float, input_energy: float, eta: float = 0.5) -> "CocktailParams":
        """Solve (alpha, beta) from an amplitude ratio and a target mean
        input energy (alpha^2 + (beta/2)^2) / 2, i.e.
        beta = sqrt(2*E_in / (ratio^2 + 1/4)).

        ``eta`` is the case-I probability; only the scheme's 1/2 is accepted.
        """
        if eta != 0.5:
            raise ValueError(f"the case split is fixed at eta = 0.5, got eta={eta!r}")
        if not (isinstance(ratio, (int, float)) and math.isfinite(ratio) and ratio > 1.0):
            raise ValueError(f"amplitude ratio must be finite and > 1, got {ratio!r}")
        if not (isinstance(input_energy, (int, float)) and math.isfinite(input_energy) and input_energy > 0):
            raise ValueError(f"input energy must be finite and > 0, got {input_energy!r}")
        beta = math.sqrt(input_energy / (0.5 * ratio * ratio + 0.125))
        return cls(ratio * beta, beta)


@dataclass(frozen=True)
class SymbolPair:
    """One symbol from each stream; both entries exactly +1 or -1."""

    x1: int
    x2: int

    def __post_init__(self) -> None:
        for name in ("x1", "x2"):
            v = getattr(self, name)
            if v not in (1, -1):
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
    if not math.isfinite(y1):
        raise ValueError(f"y1 must be finite, got {y1!r}")
    x1_hat = _sign(y1)
    y2 = y1 - params.beta * x1_hat
    return x1_hat, y2, _sign(y2)


def energy_report(params: CocktailParams) -> EnergyReport:
    """Mean per-symbol energies of the two stages.

    Each case occurs with probability 1/2. e1 is the transmitted (input)
    energy (alpha^2 + (beta/2)^2) / 2; e2 is the energy available to the
    second stage, ((alpha-beta)^2 + (beta/2)^2) / 2, which equals the total
    minus the input, i.e. the reused energy.
    """
    half_beta_sq = (0.5 * params.beta) ** 2
    e1 = 0.5 * params.alpha**2 + 0.5 * half_beta_sq
    e2 = 0.5 * (params.alpha - params.beta) ** 2 + 0.5 * half_beta_sq
    return EnergyReport(e_in=e1, e1=e1, e2=e2, e_total=e1 + e2, delta_e=e2)


def adr_breakdown(params: CocktailParams, noise: NoiseModel) -> AdrBreakdown:
    """Achievable data rates of both streams, in bits.

    Each stage is an equally weighted pair of antipodal detections: stage 1 at
    amplitudes alpha and beta/2, stage 2 (with the first stream known) at
    amplitudes alpha - beta and beta/2. The kernels are evaluated at
    variance/2, the per-dimension share of the total noise power.
    """
    stage_noise = NoiseModel(noise.variance / 2.0)
    r_half_beta = bpsk_mi(0.5 * params.beta, stage_noise)
    r1 = 0.5 * bpsk_mi(params.alpha, stage_noise) + 0.5 * r_half_beta
    r2 = 0.5 * bpsk_mi(params.alpha - params.beta, stage_noise) + 0.5 * r_half_beta
    return AdrBreakdown(r1=r1, r2=r2, total=r1 + r2)


def adr_gain_low_snr(params: CocktailParams, noise: NoiseModel) -> float:
    """Low-SNR rate gain over capacity, (delta_e / variance) * log2(e) bits.

    First-order approximation; only meaningful for e_in / variance << 1.
    """
    return energy_report(params).delta_e / noise.variance * LOG2E


def eb_over_n0(params: CocktailParams, noise: NoiseModel) -> float:
    """Energy per information bit over noise power, (e_in / variance) / total.

    This is the horizontal-axis quantity of the decibel rate plots. Raises
    ZeroDivisionError when the total rate underflows to zero (SNR
    effectively 0).
    """
    total = adr_breakdown(params, noise).total
    if total <= 0.0:
        raise ZeroDivisionError("total data rate underflowed to 0; Eb/N0 is undefined at this SNR")
    return energy_report(params).e_in / noise.variance / total
