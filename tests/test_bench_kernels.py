"""Tests for tools/bench_kernels.py, the per-point kernel benchmark."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

from cbpsk.sweep import (
    CONVENTIONAL_SCHEMES,
    DEFAULT_RATIOS,
    SweepSpec,
    cocktail_gain_curves,
    cocktail_rate_curves,
    modulation_rate_curves,
)

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "bench_kernels.py"
REFERENCE = ROOT / "perfbench" / "reference" / "modcurves.json"
SCHEMES = {"bpsk", "4ask", "qpsk", "8psk"}
CALLS = {"bpsk_mi", "adr_breakdown", "cocktail_point"}


def test_three_point_runs_append_their_records(tmp_path):
    out = tmp_path / "bench.json"
    argv = [sys.executable, str(SCRIPT), "--points", "3", "--output", str(out)]
    for label in ("parent", "change"):
        child = subprocess.run([*argv, "--label", label], capture_output=True, text=True, timeout=60)
        assert child.returncode == 0, child.stderr
    doc = json.loads(out.read_text())
    assert set(doc) == {"about", "runs"}
    assert {k: len(v) for k, v in doc["runs"].items()} == {"parent": 1, "change": 1}
    record = doc["runs"]["change"][0]
    assert set(record) == {
        "grid", "passes", "per_point_ms", "max_dev_bits", "bits", "per_call_us", "call_bits", "curve_ms",
        "curve_bits", "cocktail_ms", "cocktail_bits", "host",
    }
    assert record["grid"] == {"start": 1e-3, "stop": 1e2, "points": 3} and record["passes"] == 15
    assert set(record["per_point_ms"]) == set(record["max_dev_bits"]) == set(record["bits"]) == SCHEMES
    assert set(record["per_call_us"]) == set(record["call_bits"]) == CALLS
    # One source tree gives the same rates, to the bit, in every run.
    assert record["bits"] == doc["runs"]["parent"][0]["bits"]
    assert record["call_bits"] == doc["runs"]["parent"][0]["call_bits"]
    assert record["curve_bits"] == doc["runs"]["parent"][0]["curve_bits"]
    assert record["cocktail_bits"] == doc["runs"]["parent"][0]["cocktail_bits"]
    digests = [*record["bits"].values(), *record["call_bits"].values(), record["curve_bits"], record["cocktail_bits"]]
    assert all(len(digest) == 64 for digest in digests)
    times = [*record["per_point_ms"].values(), *record["per_call_us"].values()]
    times += [record["curve_ms"], record["cocktail_ms"]]
    assert all(t > 0.0 for t in times)
    # The curve digest is that of the five-scheme figure's rows, x and y,
    # on the three points of the reference grid that --points 3 keeps.
    grid = tuple(json.loads(REFERENCE.read_text())["grid"][i] for i in (0, 30, 59))
    curves = modulation_rate_curves(SweepSpec(snr_grid=grid, schemes=CONVENTIONAL_SCHEMES, axis_mode="eb_n0_db"))
    hexes = " ".join(v.hex() for c in curves for row in c.rows for v in row)
    assert record["curve_bits"] == hashlib.sha256(hexes.encode()).hexdigest()
    # The cocktail digest is that of the cocktail figure's rate rows and
    # then its gain rows, on the same three points.
    figure = SweepSpec(snr_grid=grid, ratios=DEFAULT_RATIOS, schemes=("capacity", "bpsk"), axis_mode="eb_n0_db")
    curves = cocktail_rate_curves(figure) + cocktail_gain_curves(figure)
    hexes = " ".join(v.hex() for c in curves for row in c.rows for v in row)
    assert record["cocktail_bits"] == hashlib.sha256(hexes.encode()).hexdigest()
    # The reference rows are this kernel's rates to rounding; a moved rate shows here.
    assert all(0.0 <= d <= 1e-12 for d in record["max_dev_bits"].values())
    assert set(record["host"]) == {"machine", "system", "cpus", "python", "numpy", "blas_threads", "blas_core", "simd"}
    assert record["host"]["blas_threads"] == "1"
    # The host profile: the OpenBLAS core by name where numpy bundles
    # scipy-openblas, and the CPU features numpy has enabled, as this
    # process's numpy reads them, sorted.
    core = record["host"]["blas_core"]
    assert core is None or (isinstance(core, str) and core)
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    assert record["host"]["simd"] == sorted(name for name, on in umath.__cpu_features__.items() if on)
    assert record["host"] == doc["runs"]["parent"][0]["host"]
