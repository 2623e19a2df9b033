"""Achievable-data-rate laboratory for cocktail BPSK over AWGN channels.

The package computes mutual information of finite constellations by
Gauss-Hermite quadrature, implements the cocktail-BPSK amplitude mapping
with its two-stage detector and energy accounting, cross-checks everything
against a seeded Monte Carlo link simulator, and sweeps SNR grids into
figure-ready rate-curve datasets.

The root re-exports each of those modules' ``__all__``, which is the one
list of its public names.

Numeric arguments may be Python or numpy numbers, but not ``bool``; they are
stored and used as plain ``int`` or ``float``. Anything else, and any value
that is not finite, raises ``ValueError`` naming the argument. Counts and
seeds take integers only.
"""

from . import cocktail, linksim, mi, sweep
from .mi import *
from .cocktail import *
from .linksim import *
from .sweep import *

__version__ = "0.1.0"

__all__ = ["__version__", *mi.__all__, *cocktail.__all__, *linksim.__all__, *sweep.__all__]
