"""Achievable-data-rate laboratory for cocktail BPSK over AWGN channels.

The package computes mutual information of finite constellations by
Gauss-Hermite quadrature, implements the cocktail-BPSK amplitude mapping
with its two-stage detector and energy accounting, cross-checks everything
against a seeded Monte Carlo link simulator, and sweeps SNR grids into
figure-ready rate-curve datasets.
"""

from .mi import (
    Constellation,
    NoiseModel,
    awgn_capacity,
    bpsk_mi,
    constellation_mi,
    gaussian_mixture_entropy,
    gaussian_mixture_entropy_simpson,
    low_snr_capacity,
    noise_entropy,
)
from .cocktail import (
    AdrBreakdown,
    CocktailParams,
    EnergyReport,
    SymbolPair,
    adr_breakdown,
    adr_gain_low_snr,
    detect,
    eb_over_n0,
    encode,
    energy_report,
)
from .linksim import LinkSimReport, SimConfig, mc_bpsk_mi, run_link
from .sweep import (
    RateCurve,
    SweepSpec,
    cocktail_gain_curves,
    cocktail_rate_curves,
    curves_from_table,
    log_grid,
    modulation_rate_curves,
    scheme_rate,
    sweep_to_table,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "NoiseModel",
    "Constellation",
    "noise_entropy",
    "awgn_capacity",
    "low_snr_capacity",
    "bpsk_mi",
    "constellation_mi",
    "gaussian_mixture_entropy",
    "gaussian_mixture_entropy_simpson",
    "CocktailParams",
    "SymbolPair",
    "EnergyReport",
    "AdrBreakdown",
    "encode",
    "detect",
    "energy_report",
    "adr_breakdown",
    "adr_gain_low_snr",
    "eb_over_n0",
    "SimConfig",
    "LinkSimReport",
    "run_link",
    "mc_bpsk_mi",
    "SweepSpec",
    "RateCurve",
    "log_grid",
    "scheme_rate",
    "modulation_rate_curves",
    "cocktail_rate_curves",
    "cocktail_gain_curves",
    "sweep_to_table",
    "curves_from_table",
]
