"""One rule for the numeric arguments of every public entry point.

A number is an int, float, numpy integer or numpy floating, but not bool,
and it must be finite; integer arguments take the integers only. Accepted
numpy values act as the plain int or float of the same value, bit for bit.
"""

import math

import numpy as np
import pytest

from cbpsk.cocktail import CocktailParams, SymbolPair, detect
from cbpsk.linksim import SimConfig, mc_bpsk_mi, run_link
from cbpsk.mi import (
    Constellation,
    NoiseModel,
    awgn_capacity,
    bpsk_mi,
    constellation_mi,
    gaussian_mixture_entropy_simpson,
    low_snr_capacity,
)
from cbpsk.sweep import RateCurve, SweepSpec, log_grid, scheme_rate

NOISE = NoiseModel(1.0)
PARAMS = CocktailParams(3.5, 1.0)
MEANS = np.array([1.0, -1.0, 3.0])

# (call with the argument under test set to v, text the error names, a
# valid integer value, a valid real value or None for an integer argument).
ENTRY_POINTS = [
    pytest.param(lambda v: NoiseModel(v), "variance", 2, 0.3, id="NoiseModel"),
    pytest.param(lambda v: Constellation((v, -1.0)), "points", 1, 0.7, id="Constellation-1d"),
    pytest.param(lambda v: Constellation(((v, 0.0), (-1.0, 0.0))), "points", 1, 0.7, id="Constellation-2d"),
    pytest.param(lambda v: Constellation((1.0, -1.0, 3.0), (v, 0.5, 0.5)), "priors", 0, 0.0,
                 id="Constellation-priors"),
    pytest.param(lambda v: Constellation.bpsk().scaled(v), "amplitude_factor", 2, 0.3, id="Constellation.scaled"),
    pytest.param(lambda v: awgn_capacity(v), "snr_linear", 3, 0.1, id="awgn_capacity"),
    pytest.param(lambda v: low_snr_capacity(v), "snr_linear", 3, 0.1, id="low_snr_capacity"),
    pytest.param(lambda v: bpsk_mi(v, NOISE), "amplitude", 1, 0.7, id="bpsk_mi"),
    pytest.param(lambda v: bpsk_mi(0.7, NOISE, v), "order", 64, None, id="bpsk_mi-order"),
    pytest.param(lambda v: CocktailParams(v, 1.0), "alpha", 3, 3.3, id="CocktailParams-alpha"),
    pytest.param(lambda v: CocktailParams(3.5, v), "beta", 1, 0.3, id="CocktailParams-beta"),
    pytest.param(lambda v: CocktailParams.from_ratio(v, 1.0), "ratio", 3, 3.3, id="from_ratio-ratio"),
    pytest.param(lambda v: CocktailParams.from_ratio(3.5, v), "input_energy", 2, 0.3, id="from_ratio-energy"),
    pytest.param(lambda v: SymbolPair(v, -1), "x1", 1, None, id="SymbolPair-x1"),
    pytest.param(lambda v: SymbolPair(1, v), "x2", -1, None, id="SymbolPair-x2"),
    pytest.param(lambda v: detect(v, PARAMS), "y1", -2, 0.3, id="detect"),
    pytest.param(lambda v: SweepSpec(snr_grid=(v,)), "snr_grid", 2, 0.3, id="SweepSpec-grid"),
    pytest.param(lambda v: SweepSpec(snr_grid=(1.0,), ratios=(v,)), "ratios", 3, 3.3, id="SweepSpec-ratios"),
    pytest.param(lambda v: log_grid(v, 10.0, 3), "start", 1, 0.3, id="log_grid-start"),
    pytest.param(lambda v: log_grid(0.1, v, 3), "stop", 4, 0.7, id="log_grid-stop"),
    pytest.param(lambda v: log_grid(0.1, 10.0, v), "count", 3, None, id="log_grid-count"),
    pytest.param(lambda v: scheme_rate("bpsk", v), "snr_linear", 2, 0.3, id="scheme_rate"),
    pytest.param(lambda v: RateCurve("c", ((v, 0.5),)), "rows", 2, 0.3, id="RateCurve"),
    pytest.param(lambda v: SimConfig(PARAMS, NOISE, v, 0), "n_symbols", 1000, None, id="SimConfig-n_symbols"),
    pytest.param(lambda v: SimConfig(PARAMS, NOISE, 1000, v), "seed", 7, None, id="SimConfig-seed"),
    pytest.param(lambda v: mc_bpsk_mi(v, NOISE, 10_000, 0), "amplitude", 1, 0.7, id="mc_bpsk_mi-amplitude"),
    pytest.param(lambda v: mc_bpsk_mi(1.0, NOISE, v, 0), "n_samples", 10_000, None, id="mc_bpsk_mi-n_samples"),
    pytest.param(lambda v: mc_bpsk_mi(1.0, NOISE, 10_000, v), "seed", 7, None, id="mc_bpsk_mi-seed"),
    pytest.param(lambda v: run_link(SimConfig(PARAMS, NOISE, 1000, 0), v), "max_workers", 2, None,
                 id="run_link-max_workers"),
    pytest.param(lambda v: gaussian_mixture_entropy_simpson(MEANS, (0.5, 0.5, 0.0), v, tol=1e-6), "var_per_dim",
                 2, 0.3, id="mixture_entropy_simpson-var"),
    pytest.param(lambda v: gaussian_mixture_entropy_simpson(MEANS, (v, 0.5, 0.5), 0.5, tol=1e-6), "priors", 0,
                 0.0, id="mixture_entropy_simpson-priors"),
]


@pytest.mark.parametrize("call,name,integer,real", ENTRY_POINTS)
def test_one_numeric_rule(call, name, integer, real):
    # An int beyond the float range is no finite real number.
    beyond_floats = (10**400,) if real is not None else ()
    for bad in (True, np.True_, math.nan, math.inf, -math.inf, "1", None, *beyond_floats):
        with pytest.raises(ValueError, match=name):
            call(bad)
    accepted = [np.int64(integer)]
    if real is not None:
        accepted += [np.float32(real), np.float64(real)]
    for v in accepted:
        plain = int(v) if isinstance(v, np.integer) else float(v)
        # repr also tells a numpy scalar that leaked through from a float
        assert call(v) == call(plain) and repr(call(v)) == repr(call(plain)), v


# Each integer argument just outside its bounds and at each bound: (call
# with the argument set to v, text the error names, refused values, accepted
# values). SimConfig's calls return the stored count or seed.
INTEGER_EDGES = [
    pytest.param(lambda v: log_grid(0.1, 10.0, v), "count", (0,), (1,), id="log_grid-count"),
    pytest.param(lambda v: SimConfig(PARAMS, NOISE, v, 0).n_symbols, "n_symbols", (0,), (1,), id="n_symbols"),
    pytest.param(lambda v: SimConfig(PARAMS, NOISE, 1000, v).seed, "seed", (-1, 2**64), (0, 2**64 - 1),
                 id="SimConfig-seed"),
    pytest.param(lambda v: mc_bpsk_mi(1.0, NOISE, 10_000, v), "seed", (-1, 2**64), (0, 2**64 - 1),
                 id="mc_bpsk_mi-seed"),
    pytest.param(lambda v: run_link(SimConfig(PARAMS, NOISE, 1000, 0), v), "max_workers", (0,), (1,),
                 id="max_workers"),
    pytest.param(lambda v: mc_bpsk_mi(1.0, NOISE, v, 0), "n_samples", (9999,), (10_000,), id="n_samples"),
    pytest.param(lambda v: bpsk_mi(0.7, NOISE, v), "order", (7, 257), (8, 256), id="bpsk_mi-order"),
    pytest.param(lambda v: constellation_mi(Constellation.ask4(), NOISE, v), "order", (7, 257), (8, 256),
                 id="constellation_mi-order"),
]


@pytest.mark.parametrize("call,name,refused,accepted", INTEGER_EDGES)
def test_integer_bounds(call, name, refused, accepted):
    for v in refused:
        with pytest.raises(ValueError, match=name):
            call(v)
    for v in accepted:
        # The numpy integer acts as the plain int: repr tells a stored
        # np.uint64 from an int.
        assert repr(call(np.uint64(v))) == repr(call(v)), v


@pytest.mark.parametrize("bad", [-3, 0, True, 2.5, np.float64(2.0)])
def test_run_link_worker_count(bad):
    # 2.5 would reach range() as a float once three shards met three cores.
    with pytest.raises(ValueError, match="max_workers"):
        run_link(SimConfig(PARAMS, NOISE, 1000, 0), bad)


@pytest.mark.parametrize("entropy", [gaussian_mixture_entropy_simpson])
def test_mixture_entropy_arguments(entropy):
    # Priors follow the rule of Constellation: >= 0, one per mean, summing
    # to 1 within 1e-12; the variance is a finite number > 0.
    means = np.array([1.0, -1.0])
    for priors in ((0.7, 0.7), (0.5, 0.5, 0.0), (1.5, -0.5), (0.5, 0.5 + 1e-11), np.array([True, False]),
                   ("0.5", "0.5"), np.full((1, 2), 0.5), (True, 0.0), 0.5, None):
        with pytest.raises(ValueError, match="priors"):
            entropy(means, priors, 0.5)
    for variance in (-1.0, 0.0, -math.inf):
        with pytest.raises(ValueError, match="var_per_dim"):
            entropy(means, (0.5, 0.5), variance)
    # Means follow the rule of Constellation.points: finite numbers, not
    # bool and not strings, shape (n,) or (n, d) with d in {1, 2}. A list is
    # checked entry by entry, so a True beside a float is not taken as 1.0.
    for bad in ([math.nan, 1.0], [math.inf, 1.0], ["1", "-1"], [True, False], [True, -1.0], [1.0, (0.0, 1.0)],
                [(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)], np.ones((2, 1, 1)), [], 1.0, None):
        with pytest.raises(ValueError, match="means"):
            entropy(bad, (0.5, 0.5), 0.5)
    # The cross-check is 1-D: two 2-D means are not four 1-D ones.
    with pytest.raises(ValueError, match="means"):
        entropy([[1, 0], [-1, 0]], [0.25] * 4, 0.5)
    assert entropy([1, -1], (0.5, 0.5), 0.5) == entropy(means, (0.5, 0.5), 0.5)
    assert entropy(means, np.array([1, 0]), 0.5) == entropy(means, (1.0, 0.0), 0.5)
