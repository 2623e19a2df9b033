"""Tests for the package root: its public names and README's example."""

import re
from pathlib import Path

import pytest

import cbpsk
from cbpsk import cocktail, linksim, mi, sweep

README = Path(__file__).resolve().parents[1] / "README.md"

# Every name the root exported while it listed them by hand, by module.
HAND_LISTED = {
    mi: [
        "NoiseModel",
        "Constellation",
        "noise_entropy",
        "awgn_capacity",
        "low_snr_capacity",
        "bpsk_mi",
        "constellation_mi",
        "gaussian_mixture_entropy_simpson",
    ],
    cocktail: [
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
    ],
    linksim: ["SimConfig", "LinkSimReport", "run_link", "mc_bpsk_mi"],
    sweep: [
        "SweepSpec",
        "RateCurve",
        "log_grid",
        "scheme_rate",
        "modulation_rate_curves",
        "cocktail_rate_curves",
        "cocktail_gain_curves",
        "sweep_to_table",
    ],
}


def test_root_exports_each_modules_all():
    assert cbpsk.__all__ == ["__version__", *mi.__all__, *cocktail.__all__, *linksim.__all__, *sweep.__all__]
    # A name in two lists would shadow the earlier module's object.
    assert len(set(cbpsk.__all__)) == len(cbpsk.__all__)


@pytest.mark.parametrize(
    "module, name", [(m, n) for m, names in HAND_LISTED.items() for n in names], ids=lambda v: getattr(v, "__name__", v)
)
def test_hand_listed_name_resolves_to_its_module_object(module, name):
    assert name in cbpsk.__all__
    assert getattr(cbpsk, name) is getattr(module, name)


def test_readme_python_example_runs():
    library = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (example,) = re.findall(r"```python\n(.*?)```", library, re.S)
    namespace = {}
    exec(compile(example, str(README), "exec"), namespace)
    # The figure the example states in its comment.
    assert cbpsk.bpsk_mi(1.0, cbpsk.NoiseModel(2.0)) == pytest.approx(0.48594, abs=5e-6)
    assert [c.label for c in namespace["gains"]] == ["gain r=3.5"]
