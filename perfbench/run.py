"""cbpsk benchmark: four workloads, end-to-end metrics, and a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload modcurves --seed 1 --seconds 20 --trace 0

``--workload`` is one of modcurves, cocktail_sweep, montecarlo,
point_queries, or ``all`` to run the four in turn in this one process (then
``peak_rss_mb`` is the process's peak so far). With ``--trace 0`` the result
carries the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of a traced run, and writes the spans to ``.perfbench_out/``.
``--smoke`` runs every workload at a tiny size, for the benchmark's own
tests.

A run: (1) times set-up in fresh probe processes (``probe.py``); (2) makes
the lazy set-up calls and one untimed warm-up pass in this process; (3)
repeats timed passes of the workload's fixed work until ``--seconds`` is
spent (at least 3 passes); (4) checks every output outside the timed region.
The last line of standard output is one JSON object with keys correct,
attempted, failed and metrics. Metric names, units and what each measures
are in ``spec.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path

import env

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "spec.json").read_text())
WORKLOAD_NAMES = tuple(SPEC["workloads"])
PROBES = 7


class Measurement:
    """Times of consecutive passes and of their calls, in reference seconds
    (see ``hostspeed.py``), and the raw pass times."""

    def __init__(self):
        self.raw_walls = []
        self.walls = []
        self.latencies = array("d")
        self.first_op_seconds = []
        self.layers = []


def guarded(report, check, *args) -> None:
    """Run one check; output too malformed for it to read is a failure."""
    try:
        check(*args)
    except Exception as exc:
        report.fail(("check", report.passes), f"{type(exc).__name__}: {exc}")


def measure(wl, budget_s, min_passes, report, speed, tracer=None) -> Measurement:
    """Run passes while another one fits in ``budget_s`` (at least
    ``min_passes``), checking each after it completes. Each top-level call
    is timed and its exception, if any, recorded as that operation's failure."""
    from workloads import Result

    m = Measurement()
    start = time.perf_counter()
    # The calibration kernel measures one core, so only passes that run on
    # one core are normalised by it.
    kernel_before = speed.kernel_seconds() if wl.single_core else None
    while len(m.walls) < min_passes or time.perf_counter() - start + statistics.median(m.raw_walls) <= budget_s:
        plan = wl.plan(report.passes)
        results = []
        t_pass = time.perf_counter()
        for kind, thunk, inputs in plan:
            if tracer is not None:
                tracer.run_id += 1
            t = time.perf_counter()
            try:
                out, error = thunk(), None
            except Exception as exc:  # an operation failure, counted and reported
                out, error = None, f"{type(exc).__name__}: {exc}"
            results.append(Result(kind, time.perf_counter() - t, out, error, inputs))
        wall = time.perf_counter() - t_pass
        scale = 1.0
        if wl.single_core:
            kernel_after = speed.kernel_seconds()
            scale = speed.scale(kernel_before, kernel_after)
            kernel_before = kernel_after
        m.raw_walls.append(wall)
        m.walls.append(wall * scale)
        m.latencies.extend(r.seconds * scale for r in results)
        m.first_op_seconds.append(results[0].seconds * scale)
        extra = wl.after_pass(results)
        if tracer is not None:
            layer = {"cli.bytes_written": 0, **tracer.take_pass(), **extra}
            m.layers.append({k: v * scale if k.endswith("_s") else v for k, v in layer.items()})
        guarded(report, wl.check_pass, results, report)
    return m


def probe_setup(name: str, count: int, discard: int, speed) -> list:
    """Set-up figures from ``count`` fresh processes, after ``discard``
    probes that warm the file cache; times in reference seconds, with the
    raw set-up time under "raw_setup_s"."""
    out = []
    kernel_before = speed.kernel_seconds()
    for _ in range(discard + count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), name],
            capture_output=True, text=True, env=env.child_env(), cwd=env.ROOT, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        kernel_after = speed.kernel_seconds()
        scale = speed.scale(kernel_before, kernel_after)
        kernel_before = kernel_after
        raw = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append({"raw_setup_s": raw["setup_s"], **{k: v * scale for k, v in raw.items()}})
    return out[discard:]


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run_workload(name, seed, seconds, trace, smoke, workdir):
    """Measure and check one workload. Returns (result dict, printed lines)."""
    import tracer as tracing
    import workloads
    from hostspeed import HostSpeed

    speed = HostSpeed()
    setup = probe_setup(name, 1, 0, speed) if smoke else probe_setup(name, PROBES, 1, speed)
    wl = workloads.WORKLOADS[name](seed, smoke, workdir)
    for _, fn in workloads.first_calls(name):
        fn(1.0)

    report = workloads.CheckReport()
    # One untimed pass lets thread pools, allocator arenas and caches warm up.
    measure(wl, 0.0, 1, report, speed)
    min_passes = 2 if (trace or smoke) else 3
    plain = measure(wl, seconds / 2 if trace else seconds, min_passes, report, speed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scaling_eff = 0.0
    if trace:
        tr = tracing.Tracer()
        tr.install()
        try:
            traced = measure(wl, 0.0, 2, report, speed, tracer=tr)
        finally:
            tr.uninstall()
        if name == "montecarlo":
            scaling_eff = measure_scaling(wl, plain, report)
    guarded(report, wl.finish, report)
    if trace:
        values = layer_values(traced, plain, setup, report, scaling_eff)
    attempted = report.attempted
    failed = len(report.failed)

    wall = statistics.median(plain.walls)
    lat = sorted(plain.latencies)
    lines = [
        f"[{name}] seed {seed}: {len(plain.walls)} untraced passes, {sum(plain.raw_walls):.2f} s timed, "
        f"{len(lat)} queries; {len(setup)} set-up probes"
    ]
    lines += [f"[{name}] note: {n}" for n in report.notes]
    if wl.single_core:
        timed = "times below are in reference seconds (hostspeed.py)"
    else:
        timed = "setup_s is in reference seconds (hostspeed.py), pass times in raw seconds (passes use every core)"
    lines.append(
        f"[{name}] {timed}; raw medians: "
        f"wall_s {statistics.median(plain.raw_walls):.6g} s, setup_s {statistics.median(p['raw_setup_s'] for p in setup):.6g} s"
    )
    shown = {
        "setup_s": statistics.median(p["setup_s"] for p in setup),
        "wall_s": wall,
        "points_per_s": wl.points_per_pass / wall,
        "query_p50_ms": nearest_rank(lat, 0.50) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    printed = {"query_p99_ms": nearest_rank(lat, 0.99) * 1e3, "failed_frac": failed / attempted}
    if name == "montecarlo":
        printed["msym_per_s"] = wl.symbols_per_pass / 1e6 / wall
    for key, value in {**shown, **printed}.items():
        unit = (SPEC["end_to_end"].get(key) or SPEC["printed_only"][key])["unit"]
        lines.append(f"[{name}] {key:<16} {value:.6g} {unit}")

    if trace:
        metrics = {k: {"value": values[k], "unit": v["unit"]} for k, v in SPEC["per_layer"].items()}
        lines += [f"[{name}] {k:<36} {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
        path = env.ROOT / ".perfbench_out" / f"trace-{name}-seed{seed}.json.gz"
        tr.write(path, {"workload": name, "seed": seed, "smoke": smoke, "threads": env.THREAD_ENV})
        lines.append(f"[{name}] {len(tr.spans)} spans written to {path.relative_to(env.ROOT)}")
        if tr.missing:
            lines.append(f"[{name}] not traced, absent from the package (their metrics read 0): {', '.join(tr.missing)}")
    else:
        metrics = {k: {"value": v, "unit": SPEC["end_to_end"][k]["unit"]} for k, v in shown.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def measure_scaling(wl, plain, report) -> float:
    """t(1 worker) / (workers x t(workers)) for the decision-directed
    run_link, the first call of every pass, in raw seconds. Checked as a
    one-call pass, so its result must equal the multi-worker one exactly."""
    from workloads import Result

    t = time.perf_counter()
    out = wl.single_worker_run()
    t1 = time.perf_counter() - t
    guarded(report, wl.check_pass, [Result("run_link 1 worker", t1, out, None)], report)
    return t1 / (wl.workers * statistics.median(plain.first_op_seconds))


def layer_values(traced, plain, setup, report, scaling_eff) -> dict:
    """Per-layer figures: the traced passes' mean, with counts required to
    repeat exactly between passes, plus the check and set-up figures."""
    per_pass = traced.layers
    for key in SPEC["exact_counts"]:
        seen = sorted({p[key] for p in per_pass})
        if len(seen) != 1:
            report.fail(("count", key), f"count {key} differs between traced passes: {seen}")
    values = {key: statistics.fmean(p[key] for p in per_pass) for key in per_pass[0]}
    values.update({
        "mi.max_dev_bits": report.max_dev_bits,
        "linksim.max_abs_z": report.max_abs_z,
        "mi.rule_setup_s": statistics.median(p["rule_setup_s"] for p in setup),
        "cli.import_s": statistics.median(p["import_s"] for p in setup),
        "linksim.scaling_eff": scaling_eff,
        "trace.overhead_s": statistics.median(traced.walls) - statistics.median(plain.walls),
    })
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=SPEC["seeds"]["default"])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    env.use_checkout_source()
    import numpy

    print(f"threads: {json.dumps(env.THREAD_ENV, sort_keys=True)}")
    print(f"host: {platform.machine()}, {len(os.sched_getaffinity(0))} cores, "
          f"python {platform.python_version()}, numpy {numpy.__version__}")

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    scratch_root = env.ROOT / ".perfbench_work"
    scratch_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch_root))
    results = {}
    try:
        for name in names:
            result, lines = run_workload(name, args.seed, args.seconds, args.trace, args.smoke, workdir)
            print("\n".join(lines), flush=True)
            results[name] = result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(scratch_root.iterdir()):
            scratch_root.rmdir()

    if len(results) == 1:
        final = results[names[0]]
    else:
        for name, r in results.items():
            print(f"result {name}: {json.dumps(r)}")
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
