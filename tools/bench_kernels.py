"""Per-point cost and accuracy of the conventional-scheme rates.

Times ``cbpsk.sweep.scheme_rate`` for bpsk, 4ask, qpsk and 8psk over the
log grid 1e-3..1e2 of ``perfbench/reference/modcurves.json`` (60 points, or
an even subset with ``--points``), with one BLAS thread. After one untimed
warm-up pass, each of 15 timed passes runs every scheme over the whole
grid, the schemes in turn and rotated from pass to pass; a scheme's figure
is the median over passes of its pass time divided by the grid size. The
same record holds the largest deviation, in bits, of each scheme's rates
from that reference table, which this script only reads, so a speed-up
that moves a rate shows in the same file. Its ``bits`` hold, per scheme,
the sha256 of the grid rates' ``float.hex``, so two records show which
schemes' rates moved by even one bit.

The record also times the scalar calls every cocktail rate is built from,
on the same grid and in the same passes: ``bpsk_mi`` at amplitude sqrt(rho)
over unit noise variance, ``adr_breakdown`` at ratio 3.5 and input energy
rho over unit total noise, with arguments built before the clock starts,
and ``cocktail_point``, one whole point of a cocktail curve as
``cbpsk.sweep`` computes it: ``CocktailParams.from_ratio(3.5, rho)`` and
then ``adr_breakdown`` on unit total noise. ``per_call_us`` holds the
median over passes of each one's pass time divided by the grid size, in
microseconds, and ``call_bits`` the sha256 of its results' ``float.hex``
(r1, r2 and total for ``adr_breakdown``, the total for ``cocktail_point``).

Last, the record times one whole curve call, as the capacity-comparison
figure makes it: ``modulation_rate_curves`` of all five schemes (capacity,
bpsk, qpsk, 4ask, 8psk) on the same grid and the Eb/N0 axis, in the same
passes. ``curve_ms`` holds the median over passes of that call's time in
milliseconds, and ``curve_bits`` the sha256 of the ``float.hex`` of every
row's x and y, curve by curve. The cocktail figure's pair is timed the same
way: ``cocktail_rate_curves`` and then ``cocktail_gain_curves`` at the
ratios ``DEFAULT_RATIOS`` with the capacity and bpsk reference rows, on the
same grid and the Eb/N0 axis, as ``cbpsk cocktail --axis ebn0`` makes them.
``cocktail_ms`` holds its median time in milliseconds, and
``cocktail_bits`` the sha256 of every row's x and y ``float.hex``, the rate
curves first.

Its ``host`` block names the host, and with it what besides the source
picks a rate's bits: the core of numpy's bundled OpenBLAS (``blas_core``,
null where the symbol that names it is absent) and the CPU features numpy
dispatches its loops on (``simd``). So a digest that differs on another
host can be told from a regression.

Each run appends one record, under ``--label``, to the JSON file named by
``--output``. Times are raw seconds, which follow the speed of a shared
host, so to set two source trees side by side, alternate runs:

    python3 tools/bench_kernels.py --src ../parent/src --label parent
    python3 tools/bench_kernels.py --label change

``--src`` names the directory the ``cbpsk`` package is imported from; by
default, this checkout's ``src``.
"""

from __future__ import annotations

import os

# Before numpy loads: one BLAS thread, as the benchmark pins it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "perfbench" / "reference" / "modcurves.json"
SCHEMES = ("bpsk", "4ask", "qpsk", "8psk")
CALLS = ("bpsk_mi", "adr_breakdown", "cocktail_point")
CURVES = "modulation_rate_curves"
COCKTAIL = "cocktail_figure"
PASSES = 15


def _grid(reference: dict, points: int) -> list:
    """``points`` indices spread evenly over the reference grid, both ends kept."""
    size = len(reference["grid"])
    return sorted({round(i * (size - 1) / (points - 1)) for i in range(points)})


def measure(points: int) -> dict:
    """One record: per-point times in ms, deviations in bits and digests per
    scheme, per-call times in us and digests per scalar call, and the time
    in ms and digest of the five-scheme curve call and of the cocktail
    figure's pair."""
    import numpy as np

    from cbpsk.cocktail import CocktailParams, adr_breakdown
    from cbpsk.mi import NoiseModel, bpsk_mi
    from cbpsk.sweep import (
        CONVENTIONAL_SCHEMES,
        DEFAULT_RATIOS,
        SweepSpec,
        cocktail_gain_curves,
        cocktail_rate_curves,
        modulation_rate_curves,
        scheme_rate,
    )

    with open(REFERENCE) as fh:
        reference = json.load(fh)
    index = _grid(reference, points)
    grid = [reference["grid"][i] for i in index]
    noise = NoiseModel(1.0)
    amplitudes = [rho**0.5 for rho in grid]
    params = [CocktailParams.from_ratio(3.5, rho) for rho in grid]
    runs = {s: lambda s=s: [scheme_rate(s, rho) for rho in grid] for s in SCHEMES}
    runs["bpsk_mi"] = lambda: [bpsk_mi(a, noise) for a in amplitudes]
    runs["adr_breakdown"] = lambda: [
        x for b in (adr_breakdown(p, noise) for p in params) for x in (b.r1, b.r2, b.total)
    ]
    runs["cocktail_point"] = lambda: [adr_breakdown(CocktailParams.from_ratio(3.5, rho), noise).total for rho in grid]
    spec = SweepSpec(snr_grid=tuple(grid), schemes=CONVENTIONAL_SCHEMES, axis_mode="eb_n0_db")
    runs[CURVES] = lambda: [v for c in modulation_rate_curves(spec) for row in c.rows for v in row]
    figure = SweepSpec(snr_grid=tuple(grid), ratios=DEFAULT_RATIOS, schemes=("capacity", "bpsk"), axis_mode="eb_n0_db")
    runs[COCKTAIL] = lambda: [
        v for c in cocktail_rate_curves(figure) + cocktail_gain_curves(figure) for row in c.rows for v in row
    ]
    names = SCHEMES + CALLS + (CURVES, COCKTAIL)

    rates = {name: run() for name, run in runs.items()}  # the warm-up pass
    times = {name: [] for name in names}
    for p in range(PASSES):
        for name in names[p % len(names):] + names[: p % len(names)]:
            start = time.perf_counter()
            runs[name]()
            times[name].append((time.perf_counter() - start) / len(grid))

    def digest(name: str) -> str:
        return hashlib.sha256(" ".join(r.hex() for r in rates[name]).encode()).hexdigest()

    return {
        "grid": {"start": grid[0], "stop": grid[-1], "points": len(grid)},
        "passes": PASSES,
        "per_point_ms": {s: statistics.median(times[s]) * 1e3 for s in SCHEMES},
        "max_dev_bits": {
            s: max(abs(rate - reference["rows"][s][i][2]) for rate, i in zip(rates[s], index)) for s in SCHEMES
        },
        "bits": {s: digest(s) for s in SCHEMES},
        "per_call_us": {c: statistics.median(times[c]) * 1e6 for c in CALLS},
        "call_bits": {c: digest(c) for c in CALLS},
        "curve_ms": statistics.median(times[CURVES]) * len(grid) * 1e3,
        "curve_bits": digest(CURVES),
        "cocktail_ms": statistics.median(times[COCKTAIL]) * len(grid) * 1e3,
        "cocktail_bits": digest(COCKTAIL),
        "host": {
            "machine": platform.machine(),
            "system": platform.system(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            **_kernel_profile(),
        },
    }


def _kernel_profile() -> dict:
    """What picks the bits of a rate on this host besides the source: the
    core of numpy's bundled OpenBLAS that runs its matrix products and
    dots (``blas_core``, None where numpy bundles no scipy-openblas), and
    the CPU features numpy dispatches its loops on (``simd``, sorted)."""
    import ctypes

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    try:
        # The extension's handle finds symbols in the libraries it links.
        corename = ctypes.CDLL(umath.__file__).scipy_openblas_get_corename64_
    except (OSError, AttributeError):
        core = None
    else:
        corename.restype = ctypes.c_char_p
        core = corename().decode()
    return {"blas_core": core, "simd": sorted(name for name, on in umath.__cpu_features__.items() if on)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory to import cbpsk from")
    parser.add_argument("--label", default="change", help="name the record is filed under")
    parser.add_argument("--points", type=int, default=60, help="grid points, 2-60 (default: %(default)s)")
    parser.add_argument("--output", default=str(ROOT / "BENCH_kernels.json"), help="JSON file to append to")
    args = parser.parse_args(argv)
    if not 2 <= args.points <= 60:
        parser.error("--points must be in 2..60")
    sys.path.insert(0, args.src)
    record = measure(args.points)

    out = Path(args.output)
    doc = json.loads(out.read_text()) if out.exists() else {"about": __doc__.split("\n\n")[0], "runs": {}}
    doc["runs"].setdefault(args.label, []).append(record)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    cells = "  ".join(f"{s} {record['per_point_ms'][s]:.4f} ms" for s in SCHEMES)
    calls = "  ".join(f"{c} {record['per_call_us'][c]:.2f} us" for c in CALLS)
    curve = f"{CURVES} {record['curve_ms']:.3f} ms  cocktail {record['cocktail_ms']:.3f} ms"
    print(f"{args.label}: {cells}  {calls}  {curve}  max dev {max(record['max_dev_bits'].values()):.2e} bits")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
