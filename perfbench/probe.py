"""Set-up probe, run in a fresh process by ``run.py``.

Usage: python3 perfbench/probe.py <workload>

Times ``import cbpsk`` and ``import cbpsk.cli``, then the workload's first
call on each kernel path (where lazy set-up such as building Gauss-Hermite
rules happens), then a second, warm call on each path. Prints one JSON
object: setup_s (imports plus first calls), import_s, and rule_setup_s (the
first calls' excess over the warm calls).
"""

import importlib
import json
import sys
import time

import env


def main() -> int:
    t0 = time.perf_counter()
    env.use_checkout_source()
    importlib.import_module("cbpsk.cli")
    import_s = time.perf_counter() - t0

    import workloads

    first = excess = 0.0
    for _, fn in workloads.first_calls(sys.argv[1]):
        t = time.perf_counter()
        fn(1.0)
        cold = time.perf_counter() - t
        t = time.perf_counter()
        fn(2.0)
        warm = time.perf_counter() - t
        first += cold
        excess += max(0.0, cold - warm)
    print(json.dumps({"setup_s": import_s + first, "import_s": import_s, "rule_setup_s": excess}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
