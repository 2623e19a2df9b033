"""The four benchmark workloads: seeded inputs, the fixed work of one pass,
and the correctness checks made outside the timed region.

A workload's ``plan(i)`` returns the top-level calls ("queries") of pass i
as ``(kind, thunk, inputs)`` triples; building the plan is not timed. Every
thunk looks its target up through the module attribute at call time, so the
tracer's wrappers see the call. ``check_pass`` checks each pass as it
completes, keeping only the first pass; ``finish`` then checks the first
pass in depth against references and oracles.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

from cbpsk import cli, cocktail, linksim, mi, sweep

import oracles

MODULATION_SCHEMES = ("capacity", "bpsk", "4ask", "qpsk", "8psk")
# A two-sided |z| gate at 4.5 standard errors keeps the chance that any of a
# run's six Monte Carlo checks fails on a correct program below 1e-4 (a
# 3-sigma gate would fail about 1 run in 60 on fresh seeds).
Z_GATE = 4.5
REFERENCE_NOISE = mi.NoiseModel(1.0)


@dataclass
class Result:
    kind: str
    seconds: float
    out: object
    error: str | None
    inputs: object = None


@dataclass
class CheckReport:
    failed: set = field(default_factory=set)  # (pass index, op index)
    passes: int = 0
    attempted: int = 0
    max_dev_bits: float = 0.0
    max_abs_z: float = 0.0
    notes: list = field(default_factory=list)

    def fail(self, where, why):
        self.failed.add(where)
        self.notes.append(f"FAIL pass {where[0]} op {where[1]}: {why}")

    def dev(self, got, want, tol, where, what):
        d = abs(got - want) if math.isfinite(got) else math.inf
        self.max_dev_bits = max(self.max_dev_bits, d)
        if not d <= tol:
            self.fail(where, f"{what}: got {got!r}, want {want!r} within {tol:.3g}")


class Workload:
    """Keeps the first pass's results and checks each later pass against them
    as it arrives, so the benchmark's memory does not grow with the passes."""

    first = None
    # Whether a pass runs on one core (see hostspeed.py).
    single_core = True

    def after_pass(self, results) -> dict:
        """Untimed work after a pass; returns extra per-layer counts."""
        return {}

    @staticmethod
    def key(out):
        """The part of an output that must repeat exactly between passes."""
        return out

    def check_pass(self, results, report) -> None:
        p = report.passes
        report.passes += 1
        report.attempted += len(results)
        for j, r in enumerate(results):
            if r.error is not None:
                report.fail((p, j), f"{r.kind} raised {r.error}")
            elif self.first is not None and self.first[j].error is None and self.key(r.out) != self.key(self.first[j].out):
                report.fail((p, j), f"{r.kind} output differs from pass 0")
        if self.first is None:
            self.first = results

    def finish(self, report) -> None:
        """Check the first pass in depth."""


class ModCurves(Workload):
    """The capacity-comparison figure: every conventional scheme on the Eb/N0
    axis, on a seeded subset of the reference table's 60-point log grid."""

    name = "modcurves"

    def __init__(self, seed: int, smoke: bool, workdir):
        self.ref = oracles.load_reference()
        k = 2 if smoke else 12
        # One point from each of k equal strata, so that every seed spans the
        # whole SNR range with the same mix of cheap and costly points.
        rng = random.Random(seed)
        stratum = len(self.ref["grid"]) // k
        self.idx = [j * stratum + rng.randrange(stratum) for j in range(k)]
        grid = tuple(self.ref["grid"][i] for i in self.idx)
        self.spec = sweep.SweepSpec(snr_grid=grid, schemes=MODULATION_SCHEMES, axis_mode="eb_n0_db")
        self.points_per_pass = k * len(MODULATION_SCHEMES)

    def plan(self, i):
        return [("modulation_rate_curves", lambda: sweep.modulation_rate_curves(self.spec), None)]

    @staticmethod
    def key(out):
        return [(c.label, c.rows) for c in out]

    def finish(self, report) -> None:
        first = self.first[0]
        if first.error is None:
            labels = [c.label for c in first.out]
            if labels != list(MODULATION_SCHEMES):
                report.fail((0, 0), f"curve labels {labels}")
            for curve in first.out:
                table = self.ref["rows"].get(curve.label, [])
                if len(curve.rows) != len(self.idx):
                    report.fail((0, 0), f"{curve.label}: {len(curve.rows)} rows")
                    continue
                for (x, y), i in zip(curve.rows, self.idx):
                    _, x_ref, y_ref, bound = table[i]
                    tol = bound + oracles.KERNEL_TOL_BITS
                    report.dev(y, y_ref, tol, (0, 0), f"{curve.label} rate at grid {i}")
                    x_tol = 10.0 / math.log(10.0) * tol / y_ref + 1e-9
                    if not oracles.within(x, x_ref, x_tol):
                        report.fail((0, 0), f"{curve.label} Eb/N0 at grid {i}: {x!r} vs {x_ref!r}")


class CocktailSweep(Workload):
    """``cbpsk cocktail ... --plot`` end to end: 16 seeded amplitude ratios on
    a dense 240-point log grid, CSVs, manifest and SVGs written to disk."""

    name = "cocktail_sweep"

    def __init__(self, seed: int, smoke: bool, workdir):
        rng = random.Random(seed)
        n_ratios, self.n_grid = (2, 12) if smoke else (16, 240)
        ratios = set()
        while len(ratios) < n_ratios:
            ratios.add(f"{rng.uniform(1.1, 8.0):.3f}")
        self.ratios = sorted(ratios, key=float)
        self.out_dir = workdir / "cocktail"
        self.argv = ["cocktail"]
        for r in self.ratios:
            self.argv += ["--ratio", r]
        self.argv += ["--grid", f"0.001:100:log:{self.n_grid}", "--axis", "ebn0", "--prefix", "cocktail", "--plot"]
        self.points_per_pass = (2 + 2 * n_ratios) * self.n_grid
        # Rows the oracle recomputes: (ratio index, grid index) pairs and one
        # bpsk reference row.
        self.sample = [(rng.randrange(n_ratios), rng.randrange(self.n_grid)) for _ in range(1 if smoke else 3)]
        self.bpsk_row = rng.randrange(self.n_grid)

    def _run(self):
        os.environ[cli.OUTPUT_DIR_ENV] = str(self.out_dir)
        return cli.main(self.argv)

    def plan(self, i):
        return [("cli.main cocktail", self._run, None)]

    def after_pass(self, results) -> dict:
        files = {}
        if self.out_dir.is_dir():
            for path in sorted(self.out_dir.iterdir()):
                files[path.name] = path.read_bytes()
                path.unlink()
        r = results[0]
        r.out = (r.out, files)
        return {"cli.bytes_written": sum(len(b) for b in files.values())}

    def _rho(self, k):
        step = (math.log10(100.0) - math.log10(0.001)) / (self.n_grid - 1)
        return 10.0 ** (math.log10(0.001) + k * step)

    @staticmethod
    def key(out):
        # The manifest records the run's duration, so only it may differ.
        code, files = out
        return code, {k: v for k, v in files.items() if "manifest" not in k}

    def finish(self, report) -> None:
        first = self.first[0]
        if first.error is None:
            self._check_files(*first.out, report)

    def _check_files(self, code, files, report):
        where = (0, 0)
        if code != 0:
            report.fail(where, f"exit code {code}")
            return
        expected = ["cocktail_gain.csv", "cocktail_gain.svg", "cocktail_rates.csv", "cocktail_rates.manifest.json", "cocktail_rates.svg"]
        if sorted(files) != expected:
            report.fail(where, f"files written {sorted(files)}")
            return
        for svg in ("cocktail_gain.svg", "cocktail_rates.svg"):
            text = files[svg].decode()
            if not (text.startswith("<?xml") and text.endswith("</svg>\n")):
                report.fail(where, f"{svg} is not a complete SVG document")
        manifest = json.loads(files["cocktail_rates.manifest.json"])
        if manifest.get("command") != "cocktail" or len(manifest.get("outputs", [])) != 4:
            report.fail(where, "manifest command or outputs wrong")

        rates = self._parse(files["cocktail_rates.csv"], report)
        gains = self._parse(files["cocktail_gain.csv"], report)
        labels = [f"r={float(r):g}" for r in self.ratios]
        want_rates = ["capacity", "bpsk"] + [f"cocktail {lab}" for lab in labels]
        want_gains = [f"gain {lab}" for lab in labels]
        if list(rates) != want_rates or list(gains) != want_gains:
            report.fail(where, f"curve labels {list(rates)} / {list(gains)}")
            return
        for label, rows in {**rates, **gains}.items():
            ceiling = 1.0 if label == "bpsk" else 2.0
            if len(rows) != self.n_grid:
                report.fail(where, f"{label}: {len(rows)} rows")
                return
            if any(b[0] <= a[0] for a, b in zip(rows, rows[1:])):
                report.fail(where, f"{label}: axis not ascending")
            if not label.startswith(("gain", "capacity")) and not all(0.0 < y <= ceiling for _, y in rows):
                report.fail(where, f"{label}: rate outside (0, {ceiling}]")

        # Closed forms on every row: capacity, and gain = total - capacity.
        for k, (x, y) in enumerate(rates["capacity"]):
            rho = self._rho(k)
            cap = math.log2(1.0 + rho)
            if not (oracles.within(y, cap, 1e-11 * cap) and oracles.within(x, 10 * math.log10(rho / cap), 1e-9)):
                report.fail(where, f"capacity row {k}: ({x}, {y})")
        for lab in labels:
            for k, ((_, total), (_, gain)) in enumerate(zip(rates[f"cocktail {lab}"], gains[f"gain {lab}"])):
                if not oracles.within(gain, total - math.log2(1.0 + self._rho(k)), 1e-10):
                    report.fail(where, f"gain {lab} row {k} is not total - capacity")

        # Seeded sample against the Simpson/Fano oracle.
        want, err = oracles.scheme_rate("bpsk", self._rho(self.bpsk_row))
        report.dev(rates["bpsk"][self.bpsk_row][1], want, err + oracles.KERNEL_TOL_BITS + 1e-11, where, "bpsk row")
        for ri, k in self.sample:
            rho = self._rho(k)
            r1, r2, err = oracles.cocktail_rates(*oracles.cocktail_params(float(self.ratios[ri]), rho))
            tol = err + 2 * oracles.KERNEL_TOL_BITS + 2e-11
            x, total = rates[f"cocktail {labels[ri]}"][k]
            report.dev(total, r1 + r2, tol, where, f"cocktail {labels[ri]} row {k}")
            x_want = 10.0 * math.log10(rho / (r1 + r2))
            if not oracles.within(x, x_want, 10.0 / math.log(10.0) * tol / (r1 + r2) + 1e-9):
                report.fail(where, f"cocktail {labels[ri]} Eb/N0 row {k}: {x} vs {x_want}")

    @staticmethod
    def _parse(data, report):
        lines = data.decode().split("\n")
        curves = {}
        if lines[0] != "curve,x,y" or lines[-1] != "":
            report.fail((0, 0), "CSV header or final newline wrong")
        for line in lines[1:-1]:
            label, x, y = line.rsplit(",", 2)
            x, y = float(x), float(y)
            if not (math.isfinite(x) and math.isfinite(y)):
                report.fail((0, 0), f"non-finite CSV row {line!r}")
            curves.setdefault(label, []).append((x, y))
        return curves


class MonteCarlo(Workload):
    """``run_link`` in both detection modes plus ``mc_bpsk_mi`` at four
    seeded amplitudes, 1e7 symbols each, on every available core."""

    name = "montecarlo"
    single_core = False

    def __init__(self, seed: int, smoke: bool, workdir):
        rng = random.Random(seed)
        self.n = 300_000 if smoke else 10_000_000
        ratio = round(rng.uniform(1.5, 5.0), 3)
        energy = 10.0 ** rng.uniform(math.log10(0.5), math.log10(4.0))
        # eta stays at its default 1/2: run_link ignores it (known defect).
        self.params = cocktail.CocktailParams.from_ratio(ratio, energy)
        self.noise = mi.NoiseModel(0.5)
        sim_seed = rng.randrange(2**32)
        self.configs = [
            linksim.SimConfig(self.params, self.noise, self.n, sim_seed, mode)
            for mode in ("decision_directed", "genie_aided")
        ]
        self.workers = len(os.sched_getaffinity(0))
        self.amplitudes = [10.0 ** rng.uniform(math.log10(0.2), math.log10(3.0)) for _ in range(4)]
        self.mc_seeds = [rng.randrange(2**32) for _ in self.amplitudes]
        # Rate estimates per pass: two streams per run_link, one per mc_bpsk_mi.
        self.points_per_pass = 2 * len(self.configs) + len(self.amplitudes)
        self.symbols_per_pass = self.n * (len(self.configs) + len(self.amplitudes))

    def plan(self, i):
        ops = [
            (f"run_link {c.detection_mode}", lambda c=c: linksim.run_link(c, max_workers=self.workers), c)
            for c in self.configs
        ]
        ops += [
            ("mc_bpsk_mi", lambda a=a, s=s: linksim.mc_bpsk_mi(a, self.noise, self.n, s), a)
            for a, s in zip(self.amplitudes, self.mc_seeds)
        ]
        return ops

    def single_worker_run(self):
        """The decision-directed run on one worker, for the scaling figure."""
        return linksim.run_link(self.configs[0], max_workers=1)

    def _stream_stderr(self, amp_a, amp_b):
        """Standard error of a genie-mode per-stream rate estimate: the
        per-symbol variance of -log2 p(y) is the case-averaged variance of
        each antipodal component (estimated by mc_bpsk_mi at 1e5 samples)
        plus the spread of the case means."""
        n_var = 100_000
        parts = []
        for amp in (amp_a, amp_b):
            _, se = linksim.mc_bpsk_mi(amp, self.noise, n_var, 0)
            parts.append((se * se * n_var, mi.bpsk_mi(amp, self.noise)))
        var = 0.5 * (parts[0][0] + parts[1][0]) + 0.25 * (parts[0][1] - parts[1][1]) ** 2
        return math.sqrt(var / self.n)

    def finish(self, report) -> None:
        first = self.first
        for j, r in enumerate(first):
            if r.error is not None:
                continue
            if r.kind == "mc_bpsk_mi":
                est, se = r.out
                quad = mi.bpsk_mi(r.inputs, self.noise)
                z = (est - quad) / se
                report.max_abs_z = max(report.max_abs_z, abs(z))
                report.dev(est, quad, Z_GATE * se, (0, j), f"mc_bpsk_mi({r.inputs:.4g}) z={z:.2f}")
            else:
                rep = r.out
                frac = rep.case1_count / rep.n_symbols
                if not (abs(frac - 0.5) <= Z_GATE * 0.5 / math.sqrt(rep.n_symbols)
                        and 0 <= rep.errors_x1 <= rep.n_symbols and 0 <= rep.errors_x2 <= rep.n_symbols):
                    report.fail((0, j), f"{r.kind}: implausible tallies {rep}")
        dd, genie = first[0], first[1]
        if dd.error is None and genie.error is None:
            a, b = dd.out, genie.out
            if (a.errors_x1, a.case1_count, a.empirical_mi_x1) != (b.errors_x1, b.case1_count, b.empirical_mi_x1):
                report.fail((0, 0), "stage-1 results differ between detection modes on one seed")
            self._check_genie(b, report)

    def _check_genie(self, rep, report):
        p = self.params
        se1 = self._stream_stderr(p.alpha, 0.5 * p.beta)
        se2 = self._stream_stderr(p.alpha - p.beta, 0.5 * p.beta)
        # run_link reads NoiseModel.variance per real dimension, adr_breakdown
        # as total power (known defect); accept whichever convention the
        # program uses, and say which.
        found = None
        for factor in (2.0, 1.0):
            adr = cocktail.adr_breakdown(p, mi.NoiseModel(factor * self.noise.variance))
            z = ((rep.empirical_mi_x1 - adr.r1) / se1, (rep.empirical_mi_x2 - adr.r2) / se2)
            if max(map(abs, z)) <= Z_GATE:
                found = (factor, adr, z)
                break
        if found is None:
            report.fail((0, 1), f"genie rates {rep.empirical_mi_x1}, {rep.empirical_mi_x2} match adr_breakdown at neither noise convention")
            return
        factor, adr, z = found
        report.max_abs_z = max(report.max_abs_z, *map(abs, z))
        report.max_dev_bits = max(report.max_dev_bits, abs(rep.empirical_mi_x1 - adr.r1), abs(rep.empirical_mi_x2 - adr.r2))
        report.notes.append(
            f"genie run_link matches adr_breakdown at {factor:g}x its noise variance "
            f"(z = {z[0]:.2f}, {z[1]:.2f}; standard errors {se1:.2e}, {se2:.2e} bits)"
        )


class PointQueries(Workload):
    """Closed loop, one caller: single-point rate queries drawn fresh from
    the seed (never repeated), 1000 per pass in a fixed mix of four kinds."""

    name = "point_queries"
    KINDS = ("scheme_rate bpsk", "scheme_rate 4ask", "adr_breakdown", "eb_over_n0")

    def __init__(self, seed: int, smoke: bool, workdir):
        self.rng = random.Random(seed)
        self.check_rng = random.Random(seed + 1)
        self.points_per_pass = 40 if smoke else 1000

    def plan(self, i):
        ops = []
        for k in range(self.points_per_pass):
            kind = self.KINDS[k % len(self.KINDS)]
            rho = 10.0 ** self.rng.uniform(-4.0, 4.0)
            if kind.startswith("scheme_rate"):
                scheme = kind.split()[1]
                ops.append((kind, lambda s=scheme, r=rho: sweep.scheme_rate(s, r), (scheme, rho)))
                continue
            ratio = self.rng.uniform(1.1, 8.0)
            params = cocktail.CocktailParams.from_ratio(ratio, rho)
            ops.append((kind, lambda f=kind, p=params: getattr(cocktail, f)(p, REFERENCE_NOISE), (ratio, rho)))
        self.rng.shuffle(ops)
        return ops

    def check_pass(self, results, report) -> None:
        # Every pass asks new questions: range-check each answer instead of
        # comparing passes.
        p = report.passes
        report.passes += 1
        report.attempted += len(results)
        for j, r in enumerate(results):
            if r.error is not None:
                report.fail((p, j), f"{r.kind} raised {r.error}")
            elif not self._in_range(r):
                report.fail((p, j), f"{r.kind}{r.inputs} out of range: {r.out!r}")
        if self.first is None:
            self.first = results

    def finish(self, report) -> None:
        # One seeded query of each kind from pass 0 against the oracle.
        for kind in self.KINDS:
            j = self.check_rng.choice([j for j, r in enumerate(self.first) if r.kind == kind])
            r = self.first[j]
            if r.error is None:
                self._oracle(r, (0, j), report)

    @staticmethod
    def _in_range(r):
        if r.kind.startswith("scheme_rate"):
            return 0.0 <= r.out <= (1.0 if r.inputs[0] == "bpsk" else 2.0)
        if r.kind == "adr_breakdown":
            return 0.0 <= r.out.r1 <= 1.0 and 0.0 <= r.out.r2 <= 1.0 and abs(r.out.total - r.out.r1 - r.out.r2) <= 1e-15
        return math.isfinite(r.out) and r.out > 0.0

    @staticmethod
    def _oracle(r, where, report):
        if r.kind.startswith("scheme_rate"):
            want, err = oracles.scheme_rate(*r.inputs)
            report.dev(r.out, want, err + oracles.KERNEL_TOL_BITS, where, f"{r.kind}{r.inputs}")
            return
        ratio, rho = r.inputs
        r1, r2, err = oracles.cocktail_rates(*oracles.cocktail_params(ratio, rho))
        tol = err + 2 * oracles.KERNEL_TOL_BITS
        if r.kind == "adr_breakdown":
            report.dev(r.out.r1, r1, tol, where, f"adr_breakdown{r.inputs} r1")
            report.dev(r.out.r2, r2, tol, where, f"adr_breakdown{r.inputs} r2")
        else:
            want = rho / REFERENCE_NOISE.variance / (r1 + r2)
            if not oracles.within(r.out, want, want * (tol / (r1 + r2) + 1e-12)):
                report.fail(where, f"eb_over_n0{r.inputs}: got {r.out!r}, want {want!r}")


WORKLOADS = {w.name: w for w in (ModCurves, CocktailSweep, MonteCarlo, PointQueries)}


def first_calls(name: str):
    """The workload's first call on each kernel path, as (label, fn) pairs;
    ``fn(x)`` is called once at x = 1 (cold: lazy set-up happens here) and
    once at x = 2 (warm), so the difference is the set-up cost."""
    sim = linksim.SimConfig
    calls = {
        "modcurves": [(f"scheme_rate {s}", lambda x, s=s: sweep.scheme_rate(s, x)) for s in MODULATION_SCHEMES],
        "cocktail_sweep": [
            ("adr_breakdown", lambda x: cocktail.adr_breakdown(cocktail.CocktailParams.from_ratio(3.0, x), REFERENCE_NOISE)),
            ("scheme_rate bpsk", lambda x: sweep.scheme_rate("bpsk", x)),
        ],
        "montecarlo": [
            ("run_link", lambda x: linksim.run_link(
                sim(cocktail.CocktailParams.from_ratio(3.0, x), mi.NoiseModel(0.5), 50_000, 0, "genie_aided"))),
            ("mc_bpsk_mi", lambda x: linksim.mc_bpsk_mi(x, mi.NoiseModel(0.5), 10_000, 0)),
        ],
        "point_queries": [
            ("scheme_rate bpsk", lambda x: sweep.scheme_rate("bpsk", x)),
            ("scheme_rate 4ask", lambda x: sweep.scheme_rate("4ask", x)),
            ("adr_breakdown", lambda x: cocktail.adr_breakdown(cocktail.CocktailParams.from_ratio(3.0, x), REFERENCE_NOISE)),
            ("eb_over_n0", lambda x: cocktail.eb_over_n0(cocktail.CocktailParams.from_ratio(3.0, x), REFERENCE_NOISE)),
        ],
    }
    return calls[name]
