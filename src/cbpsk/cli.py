"""Command-line front end: grid parsing, experiment execution, CSV/JSON
emission with run manifests, and optional SVG charts.

Exit codes: 0 on success, 2 for usage errors (bad flags, malformed grids,
out-of-range ratios), 3 for numeric or domain failures during execution.

Dataset CSVs use the long format ``curve,x,y`` with floats printed to 12
significant digits and "\\n" line endings; identical flags (including
seeds) reproduce identical bytes. Every written dataset is accompanied by a
``*.manifest.json`` listing the resolved configuration, tool version, seeds
and output files. Relative output paths resolve against the directory named
by the ``CBPSK_OUTPUT_DIR`` environment variable, when set.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass

from . import __version__
from .cocktail import CocktailParams, eb_over_n0, energy_report
from .linksim import SimConfig, run_link
from .mi import NoiseModel, awgn_capacity, low_snr_capacity
from .sweep import (
    DEFAULT_RATIOS,
    SweepSpec,
    cocktail_gain_curves,
    cocktail_rate_curves,
    log_grid,
    modulation_rate_curves,
    scheme_rate,
    sweep_to_table,
)
from .svgchart import render_line_chart

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3

OUTPUT_DIR_ENV = "CBPSK_OUTPUT_DIR"

MI_SCHEMES = ("bpsk", "4ask", "qpsk", "8psk")
_MODE_FLAGS = {"dd": "decision_directed", "genie": "genie_aided"}
_AXIS_FLAGS = {"linear": "linear_snr", "ebn0": "eb_n0_db"}


@dataclass(frozen=True)
class RunManifest:
    """Record of one CLI run, sufficient to reproduce it."""

    command: str
    config: dict
    version: str
    seeds: list
    outputs: list
    duration_s: float


def grid_arg(spec: str):
    """Parse a grid flag ``start:stop:lin|log:count`` into a value tuple."""
    parts = spec.split(":")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"grid must look like start:stop:lin|log:count, got {spec!r}"
        )
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[3])
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric grid bounds in {spec!r}") from None
    mode = parts[2]
    if mode not in ("lin", "log"):
        raise argparse.ArgumentTypeError(f"grid mode must be lin or log, got {mode!r}")
    if count < 1 or not (math.isfinite(start) and math.isfinite(stop)):
        raise argparse.ArgumentTypeError(f"bad grid bounds or count in {spec!r}")
    if count == 1:
        return (start,)
    if stop <= start:
        raise argparse.ArgumentTypeError(f"grid needs start < stop, got {spec!r}")
    if mode == "lin":
        step = (stop - start) / (count - 1)
        return tuple(start + i * step for i in range(count))
    if start <= 0:
        raise argparse.ArgumentTypeError("log grids need start > 0")
    return log_grid(start, stop, count)


def ratio_arg(s: str) -> float:
    try:
        v = float(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"ratio must be a number, got {s!r}") from None
    if not (math.isfinite(v) and v > 1.0):
        raise argparse.ArgumentTypeError(
            f"ratio must be > 1 (the scheme requires alpha > beta > 0), got {s}"
        )
    return v


def nonneg_float(s: str) -> float:
    try:
        v = float(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {s!r}") from None
    if not (math.isfinite(v) and v >= 0):
        raise argparse.ArgumentTypeError(f"expected a finite value >= 0, got {s}")
    return v


def positive_float(s: str) -> float:
    v = nonneg_float(s)
    if v == 0:
        raise argparse.ArgumentTypeError("expected a value > 0")
    return v


def positive_int(s: str) -> int:
    try:
        v = int(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {s!r}") from None
    if v < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {s}")
    return v


def _fmt(v: float) -> str:
    return format(float(v), ".12g")


def _csv_text(rows) -> str:
    lines = ["curve,x,y"]
    lines.extend(f"{label},{_fmt(x)},{_fmt(y)}" for label, x, y in rows)
    return "\n".join(lines) + "\n"


def _resolve(path: str) -> str:
    if os.path.isabs(path):
        return path
    return os.path.join(os.environ.get(OUTPUT_DIR_ENV, "."), path)


def _write_text(path: str, text: str) -> str:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
    return path


def _manifest_path(primary_output: str) -> str:
    stem, _ = os.path.splitext(primary_output)
    return stem + ".manifest.json"


def _write_manifest(command: str, args, seeds, outputs, started: float) -> str:
    config = {
        k: (list(v) if isinstance(v, tuple) else v)
        for k, v in vars(args).items()
        if k not in ("func", "command", "config") and not k.startswith("_")
    }
    manifest = RunManifest(
        command=command,
        config=config,
        version=__version__,
        seeds=list(seeds),
        outputs=[os.path.abspath(o) for o in outputs],
        duration_s=round(time.monotonic() - started, 6),
    )
    path = _manifest_path(outputs[0])
    _write_text(path, json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n")
    return path


def cmd_capacity(args) -> int:
    values = tuple(args.snr) if args.snr else args.grid
    rows = [("capacity", v, awgn_capacity(v)) for v in values]
    rows += [("low_snr", v, low_snr_capacity(v)) for v in values]
    text = _csv_text(rows)
    if args.output:
        started = time.monotonic()
        out = _write_text(_resolve(args.output), text)
        _write_manifest("capacity", args, [], [out], started)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_mi(args) -> int:
    if args.check:
        # The 2-D quadrature route must agree with two independent 1-D
        # detections at the same per-dimension SNR.
        worst = 0.0
        for rho in args.grid:
            dev = abs(scheme_rate("qpsk", rho) - 2.0 * scheme_rate("bpsk", rho / 2.0))
            worst = max(worst, dev)
        if worst > 1e-8:
            print(f"consistency check failed: |qpsk - 2*bpsk| up to {worst:.3e}", file=sys.stderr)
            return EXIT_NUMERIC
        print(f"consistency check passed: |qpsk - 2*bpsk| <= {worst:.3e} over {len(args.grid)} points")
        return EXIT_OK

    started = time.monotonic()
    spec = SweepSpec(snr_grid=args.grid, schemes=(args.scheme,), axis_mode=_AXIS_FLAGS[args.axis])
    curves = modulation_rate_curves(spec)
    out = _write_text(_resolve(args.output or f"mi_{args.scheme}.csv"), _csv_text(sweep_to_table(curves)))
    _write_manifest("mi", args, [], [out], started)
    return EXIT_OK


def cmd_cocktail(args) -> int:
    ratios = tuple(args.ratio) if args.ratio else DEFAULT_RATIOS

    if args.report_limit:
        cap_limit_db = 10.0 * math.log10(math.log(2.0))
        for r in ratios:
            params = CocktailParams.from_ratio(r, 1e-4)
            rep = energy_report(params)
            measured_db = 10.0 * math.log10(eb_over_n0(params, NoiseModel(1.0)))
            closed_db = cap_limit_db - 10.0 * math.log10(rep.e_total / rep.e1)
            gain_db = cap_limit_db - measured_db
            print(
                f"ratio {r:g}: limiting Eb/N0 {measured_db:.2f} dB "
                f"(closed form {closed_db:.2f} dB), gain {gain_db:.2f} dB "
                f"over the {cap_limit_db:.2f} dB capacity limit"
            )
        return EXIT_OK

    started = time.monotonic()
    axis_mode = _AXIS_FLAGS[args.axis]
    spec = SweepSpec(snr_grid=args.grid, ratios=ratios, schemes=("capacity", "bpsk"), axis_mode=axis_mode)
    rates = cocktail_rate_curves(spec)
    gains = cocktail_gain_curves(spec)
    outputs = [
        _write_text(_resolve(f"{args.prefix}_rates.csv"), _csv_text(sweep_to_table(rates))),
        _write_text(_resolve(f"{args.prefix}_gain.csv"), _csv_text(sweep_to_table(gains))),
    ]
    if args.plot:
        log_axis = axis_mode == "linear_snr"
        x_label = "Ein/noise (linear)" if log_axis else "Eb/N0 (dB)"
        outputs.append(
            _write_text(
                _resolve(f"{args.prefix}_rates.svg"),
                render_line_chart(rates, "achievable data rate", x_label, "bits/sec/Hz", log_x=log_axis),
            )
        )
        outputs.append(
            _write_text(
                _resolve(f"{args.prefix}_gain.svg"),
                render_line_chart(gains, "rate minus capacity", x_label, "bits/sec/Hz", log_x=log_axis),
            )
        )
    _write_manifest("cocktail", args, [], outputs, started)
    return EXIT_OK


def cmd_simulate(args) -> int:
    started = time.monotonic()
    config = SimConfig(
        params=CocktailParams(args.alpha, args.beta),
        noise=NoiseModel(args.noise_var),
        n_symbols=args.n,
        seed=args.seed,
        detection_mode=_MODE_FLAGS[args.mode],
    )
    report = run_link(config, max_workers=args.workers)
    doc = {
        "config": {
            "alpha": config.params.alpha,
            "beta": config.params.beta,
            "eta": 0.5,
            "noise_variance": config.noise.variance,
            "n_symbols": config.n_symbols,
            "seed": config.seed,
            "detection_mode": config.detection_mode,
        },
        "report": asdict(report),
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.output:
        out = _write_text(_resolve(args.output), text)
        _write_manifest("simulate", args, [config.seed], [out], started)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cbpsk",
        description="Achievable-data-rate laboratory for cocktail BPSK over AWGN channels.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    grid_help = "SNR grid as start:stop:lin|log:count (e.g. 0.001:100:log:60)"
    config_help = "JSON file of flag defaults; explicit flags override it"

    p = sub.add_parser("capacity", help="Shannon capacity and its low-SNR approximation")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--snr", type=nonneg_float, action="append", help="one linear SNR value (repeatable)")
    g.add_argument("--grid", type=grid_arg, help=grid_help)
    p.add_argument("--output", help="CSV path (default: print to stdout)")
    p.add_argument("--config", help=config_help)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("mi", help="rate curve of one modulation scheme")
    p.add_argument("--scheme", choices=MI_SCHEMES, required=True)
    p.add_argument("--grid", type=grid_arg, default="0.001:100:log:40", help=grid_help)
    p.add_argument("--axis", choices=tuple(_AXIS_FLAGS), default="linear")
    p.add_argument("--output", help="CSV path (default: mi_<scheme>.csv)")
    p.add_argument("--check", action="store_true", help="run the qpsk = 2 x bpsk consistency check and exit")
    p.add_argument("--config", help=config_help)
    p.set_defaults(func=cmd_mi)

    p = sub.add_parser("cocktail", help="cocktail-BPSK rate and gain datasets")
    p.add_argument("--ratio", type=ratio_arg, action="append",
                   help=f"alpha/beta ratio, > 1 (repeatable; default {' '.join(f'{r:g}' for r in DEFAULT_RATIOS)})")
    p.add_argument("--grid", type=grid_arg, default="0.001:100:log:60", help=grid_help)
    p.add_argument("--axis", choices=tuple(_AXIS_FLAGS), default="ebn0")
    p.add_argument("--prefix", default="cocktail", help="output file prefix (default: cocktail)")
    p.add_argument("--plot", action="store_true", help="also render SVG charts")
    p.add_argument("--report-limit", action="store_true",
                   help="print the low-SNR limiting Eb/N0 per ratio instead of writing datasets")
    p.add_argument("--config", help=config_help)
    p.set_defaults(func=cmd_cocktail)

    p = sub.add_parser("simulate", help="seeded Monte Carlo link simulation")
    p.add_argument("--alpha", type=positive_float, required=True)
    p.add_argument("--beta", type=positive_float, required=True)
    p.add_argument("--noise-var", type=positive_float, required=True, help="total noise power")
    p.add_argument("--n", type=positive_int, default=10000, help="number of symbols")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=tuple(_MODE_FLAGS), default="dd",
                   help="dd = decision-directed, genie = error-free first stream")
    p.add_argument("--workers", type=positive_int, default=1, help="parallel shard workers")
    p.add_argument("--output", help="JSON report path (default: print to stdout)")
    p.add_argument("--config", help=config_help)
    p.set_defaults(func=cmd_simulate)

    return parser, sub


# The repeatable (append) flags and their converters. argparse does not
# convert list defaults, so config values for these are converted here.
_REPEATABLE = {"snr": nonneg_float, "ratio": ratio_arg}


def _apply_config(parser, sub, args, argv):
    path = getattr(args, "config", None)
    if not path:
        return args
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"config file {path!r} must hold a JSON object")
    command_parser = sub.choices[args.command]
    unknown = [k for k in cfg if not hasattr(args, k)]
    if unknown:
        command_parser.error(f"unknown config keys {unknown} for command {args.command!r}")
    command_parser.set_defaults(**{k: v for k, v in cfg.items() if k not in _REPEATABLE})
    args = parser.parse_args(argv)
    for k, convert in _REPEATABLE.items():
        if k in cfg and getattr(args, k) is None:
            value = cfg[k] if isinstance(cfg[k], list) else [cfg[k]]
            try:
                setattr(args, k, [convert(str(v)) for v in value])
            except argparse.ArgumentTypeError as exc:
                command_parser.error(f"config key {k!r}: {exc}")
    return args


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, sub = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config(parser, sub, args, argv)
        return args.func(args)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"cbpsk: error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
