"""Regenerate ``reference/modcurves.json``, the table the ``modcurves``
workload checks its rows against.

Run from the repository root:  python3 perfbench/make_reference.py

The table holds, on the 60-point log grid 1e-3..1e2 (linear SNR rho), the
Eb/N0-axis rows of ``sweep.scheme_rate`` for capacity, bpsk, 4ask, qpsk and
8psk as the kernel at generation time computes them. Each value carries an
error bound from an independent cross-check made here:

* capacity: the closed form log2(1 + rho), bound 0;
* bpsk, 4ask: the Simpson (or Fano, at wide separations) oracle;
* qpsk: 2 x the bpsk oracle at rho/2, the ``cbpsk mi --check`` identity;
* 8psk: the same kernel at half the tensor order (96 instead of 192).

Generation fails if any bound exceeds 1e-8 bits.
"""

from __future__ import annotations

import json
import math

import env

env.use_checkout_source()

from cbpsk import mi, sweep  # noqa: E402

import oracles  # noqa: E402

GRID = sweep.log_grid(1e-3, 1e2, 60)
SCHEMES = ("capacity", "bpsk", "4ask", "qpsk", "8psk")
MAX_BOUND = 1e-8


def cross_check(scheme: str, rho: float, rate: float) -> float:
    if scheme in ("capacity", "bpsk", "4ask"):
        want, oracle_err = oracles.scheme_rate(scheme, rho)
        return abs(rate - want) + oracle_err
    if scheme == "qpsk":
        half, oracle_err = oracles.scheme_rate("bpsk", rho / 2.0)
        return abs(rate - 2.0 * half) + 2.0 * oracle_err
    c = mi.Constellation.psk8().scaled(math.sqrt(rho))
    return abs(rate - mi.constellation_mi(c, mi.NoiseModel(1.0), order=96))


def main() -> int:
    rows = {}
    for scheme in SCHEMES:
        table = []
        for rho in GRID:
            rate = sweep.scheme_rate(scheme, rho)
            bound = cross_check(scheme, rho, rate)
            if not bound <= MAX_BOUND:
                raise SystemExit(f"{scheme} at rho={rho!r}: cross-check deviation {bound:.3e} bits")
            table.append([rho, 10.0 * math.log10(rho / rate), rate, bound])
        rows[scheme] = table
        print(f"{scheme}: max bound {max(r[3] for r in table):.3e} bits")
    doc = {
        "about": "sweep.scheme_rate rows on the Eb/N0 axis; columns rho, x_db, rate_bits, error_bound_bits",
        "grid": list(GRID),
        "rows": rows,
    }
    oracles.REFERENCE_PATH.parent.mkdir(exist_ok=True)
    with open(oracles.REFERENCE_PATH, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
