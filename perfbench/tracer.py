"""In-memory span tracer that instruments ``cbpsk`` from outside.

The program is not edited: :meth:`Tracer.install` replaces the module
attributes through which callers look up each traced function (for example
``cbpsk.cocktail.bpsk_mi`` and ``cbpsk.sweep.constellation_mi``) with a
wrapper that records a span, and :meth:`Tracer.uninstall` puts the originals
back. Spans are kept in memory and written out once at the end.

Only the calling thread is traced. ``run_link``'s worker threads execute
private shard code, which no wrapper touches.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import math
import sys
import time
from collections import defaultdict

# Functions that get a span. cli is traced at ``main`` only, so that its self
# time is the front end's own work: argument parsing, CSV formatting,
# manifests and file writes.
SPANNED = (
    "mi.bpsk_mi",
    "mi.constellation_mi",
    "cocktail.adr_breakdown",
    "cocktail.eb_over_n0",
    "sweep.scheme_rate",
    "sweep.modulation_rate_curves",
    "sweep.cocktail_rate_curves",
    "sweep.cocktail_gain_curves",
    "linksim.run_link",
    "linksim.mc_bpsk_mi",
    "svgchart.render_line_chart",
    "cli.main",
)
# Counted without a span, so that the kernels' self time includes it.
MIXTURE = "mi.gaussian_mixture_entropy"

CURVE_BUILDERS = ("sweep.modulation_rate_curves", "sweep.cocktail_rate_curves", "sweep.cocktail_gain_curves")
# Shard size of the simulator's documented reproducibility contract.
SHARD_SYMBOLS = 1 << 20


class Tracer:
    """Records spans (id, parent, name, start_ns, end_ns, run id) and the
    counts each layer's metrics need."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.run_id = 0
        self.opened = 0
        self.missing = []
        self._patched = []
        self._taken = 0
        self._reset_counts()

    def _reset_counts(self):
        self.counts = defaultdict(float)
        self.kernel_args = set()
        self.temp_mb = 0.0

    # -- instrumentation -------------------------------------------------

    def _spanned(self, name, fn):
        tracer = self
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)
        if name in CURVE_BUILDERS:
            hook = self._on_curves
        arg = _ArgReader(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.opened
            tracer.opened += 1
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                tracer.stack.pop()
                tracer.spans.append((sid, parent, name, start, end, tracer.run_id))
            if hook is not None:
                hook(lambda key: arg(key, args, kwargs), result)
            return result

        return traced

    def _counted_mixture(self, fn):
        tracer = self
        arg = _ArgReader(fn)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            means = arg("means", args, kwargs)
            shape = getattr(means, "shape", None) or (len(means),)
            m = shape[0]
            d = shape[1] if len(shape) > 1 else 1
            nodes = arg("order", args, kwargs) ** d
            tracer.counts["mi.mixture_evals"] += nodes * m * m
            # Largest temporary: the (nodes, M, d) float64 difference array.
            tracer.temp_mb = max(tracer.temp_mb, nodes * m * d * 8 / 1e6)
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "cbpsk" or k.startswith("cbpsk.")]
        for name in SPANNED + (MIXTURE,):
            layer, fn_name = name.split(".")
            original = getattr(sys.modules.get(f"cbpsk.{layer}"), fn_name, None)
            if original is None:
                self.missing.append(name)
                continue
            if name == MIXTURE:
                wrapper = self._counted_mixture(original)
            else:
                wrapper = self._spanned(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- count hooks -----------------------------------------------------

    def _on_mi_bpsk_mi(self, a, result):
        self.kernel_args.add((float(a("amplitude")), a("noise").variance, a("order")))

    def _on_curves(self, a, result):
        self.counts["sweep.points"] += sum(len(c.rows) for c in result)

    def _count_symbols(self, n):
        self.counts["linksim.symbols"] += n
        self.counts["linksim.shards"] += math.ceil(n / SHARD_SYMBOLS)

    def _on_linksim_run_link(self, a, result):
        self._count_symbols(a("config").n_symbols)

    def _on_linksim_mc_bpsk_mi(self, a, result):
        self._count_symbols(a("n_samples"))

    def _on_svgchart_render_line_chart(self, a, result):
        self.counts["svgchart.bytes"] += len(result.encode())

    # -- aggregation -----------------------------------------------------

    def take_pass(self) -> dict:
        """Per-layer figures of the spans and counts recorded since the last
        call, as {metric: value}; resets the counts."""
        spans = self.spans[self._taken:]
        self._taken = len(self.spans)
        name_of = {s[0]: s[2] for s in spans}
        self_ns = defaultdict(int)
        calls = defaultdict(int)
        kernel_under_adr = 0
        for sid, parent, name, start, end, _ in spans:
            calls[name] += 1
            self_ns[name] += end - start
            if parent in name_of:
                self_ns[name_of[parent]] -= end - start
                if name == "mi.bpsk_mi" and name_of[parent] == "cocktail.adr_breakdown":
                    kernel_under_adr += 1
        out = {
            "mi.constellation_mi.calls": calls["mi.constellation_mi"],
            "mi.constellation_mi.self_s": self_ns["mi.constellation_mi"] / 1e9,
            "mi.mixture_evals": self.counts["mi.mixture_evals"],
            "mi.temp_mb_computed": self.temp_mb,
            "mi.bpsk_mi.calls": calls["mi.bpsk_mi"],
            "mi.bpsk_mi.self_s": self_ns["mi.bpsk_mi"] / 1e9,
            "cocktail.adr_breakdown.calls": calls["cocktail.adr_breakdown"],
            "cocktail.adr_breakdown.self_s": self_ns["cocktail.adr_breakdown"] / 1e9,
            "cocktail.kernel_calls_per_adr": _ratio(kernel_under_adr, calls["cocktail.adr_breakdown"]),
            "sweep.points": self.counts["sweep.points"],
            "sweep.scheme_rate.calls": calls["sweep.scheme_rate"],
            "sweep.unique_kernel_frac": _ratio(len(self.kernel_args), calls["mi.bpsk_mi"]),
            "linksim.run_link.self_s": self_ns["linksim.run_link"] / 1e9,
            "linksim.mc_bpsk_mi.self_s": self_ns["linksim.mc_bpsk_mi"] / 1e9,
            "linksim.symbols": self.counts["linksim.symbols"],
            "linksim.shards": self.counts["linksim.shards"],
            "svgchart.render_line_chart.self_s": self_ns["svgchart.render_line_chart"] / 1e9,
            "svgchart.bytes": self.counts["svgchart.bytes"],
            "cli.main.self_s": self_ns["cli.main"] / 1e9,
        }
        for name in CURVE_BUILDERS:
            out[f"{name}.self_s"] = self_ns[name] / 1e9
        self._reset_counts()
        return out

    def write(self, path, meta: dict) -> None:
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = dict(meta)
        doc["span_fields"] = ["id", "parent", "name", "start_ns", "end_ns", "run_id"]
        doc["names"] = names
        doc["spans"] = [[s[0], s[1], index[s[2]], s[3], s[4], s[5]] for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class _ArgReader:
    """Reads a named argument of one call to ``fn`` however it was passed,
    without the cost of ``inspect.Signature.bind`` on every call."""

    def __init__(self, fn):
        params = inspect.signature(fn).parameters
        self.index = {name: i for i, name in enumerate(params)}
        self.default = {name: p.default for name, p in params.items()}

    def __call__(self, name, args, kwargs):
        i = self.index[name]
        if i < len(args):
            return args[i]
        return kwargs.get(name, self.default[name])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
