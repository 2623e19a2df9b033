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
from dataclasses import asdict

from . import __version__
from .cocktail import CocktailParams, eb_over_n0, energy_report
from .linksim import SimConfig, _checked_seed, run_link
from .mi import NoiseModel, _real, awgn_capacity, low_snr_capacity
from .sweep import (
    CONVENTIONAL_SCHEMES,
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

_MODE_FLAGS = {"dd": "decision_directed", "genie": "genie_aided"}
_AXIS_FLAGS = {"linear": "linear_snr", "ebn0": "eb_n0_db"}


def grid_arg(spec: str):
    """Parse a grid flag ``start:stop:lin|log:count`` into a tuple of values >= 0."""
    parts = spec.split(":")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"grid must look like start:stop:lin|log:count, got {spec!r}"
        )
    try:
        start, stop = (_real("grid bounds", float(x)) for x in parts[:2])
        count = int(parts[3])
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid needs finite bounds and an integer count, got {spec!r}") from None
    mode = parts[2]
    if mode not in ("lin", "log"):
        raise argparse.ArgumentTypeError(f"grid mode must be lin or log, got {mode!r}")
    if count < 1:
        raise argparse.ArgumentTypeError(f"grid count must be >= 1, got {spec!r}")
    if start < 0:
        raise argparse.ArgumentTypeError(f"grid values must be >= 0, got {spec!r}")
    if stop <= start:
        raise argparse.ArgumentTypeError(f"grid needs start < stop, got {spec!r}")
    if mode == "log" and start <= 0:
        raise argparse.ArgumentTypeError("log grids need start > 0")
    if count == 1:
        return (start,)
    if mode == "lin":
        step = (stop - start) / (count - 1)
        return tuple(start + i * step for i in range(count))
    return log_grid(start, stop, count)


def _positive_grid_arg(spec: str):
    """:func:`grid_arg` for the rate commands, whose grid values must be > 0."""
    grid = grid_arg(spec)
    if grid[0] <= 0:
        raise argparse.ArgumentTypeError(f"grid values must be > 0 for a rate, got {spec!r}")
    return grid


def _float_arg(s: str, what: str, **bounds) -> float:
    """``s`` as a number held to the package's rule, with ``bounds`` as in
    :func:`cbpsk.mi._real`; a usage error expecting ``what`` otherwise."""
    try:
        return _real(what, float(s), **bounds)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected {what}, got {s!r}") from None


def ratio_arg(s: str) -> float:
    return _float_arg(s, "a ratio > 1 (the scheme requires alpha > beta > 0)", above=1.0)


def nonneg_float(s: str) -> float:
    return _float_arg(s, "a finite value >= 0", at_least=0.0)


def positive_float(s: str) -> float:
    return _float_arg(s, "a finite value > 0", above=0.0)


def positive_int(s: str) -> int:
    try:
        v = int(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {s!r}") from None
    if v < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {s}")
    return v


def _seed_arg(s: str) -> int:
    try:
        return _checked_seed(int(s))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer in [0, 2**64), got {s!r}") from None


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
        if k not in ("func", "command", "config")
    }
    manifest = {
        "command": command,
        "config": config,
        "version": __version__,
        "seeds": list(seeds),
        "outputs": [os.path.abspath(o) for o in outputs],
        "duration_s": round(time.monotonic() - started, 6),
    }
    path = _manifest_path(outputs[0])
    _write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def cmd_capacity(args) -> int:
    started = time.monotonic()
    values = tuple(args.snr) if args.snr else args.grid
    rows = [("capacity", v, awgn_capacity(v)) for v in values]
    rows += [("low_snr", v, low_snr_capacity(v)) for v in values]
    text = _csv_text(rows)
    if args.output:
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
    config_help = "JSON file of flag values; explicit flags override it"

    p = sub.add_parser("capacity", help="Shannon capacity and its low-SNR approximation")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--snr", type=nonneg_float, action="append", help="one linear SNR value (repeatable)")
    g.add_argument("--grid", type=grid_arg, help=grid_help)
    p.add_argument("--output", help="CSV path (default: print to stdout)")
    p.add_argument("--config", help=config_help)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("mi", help="rate curve of one modulation scheme")
    p.add_argument("--scheme", choices=[s for s in CONVENTIONAL_SCHEMES if s != "capacity"], required=True)
    p.add_argument("--grid", type=_positive_grid_arg, default="0.001:100:log:40", help=grid_help)
    p.add_argument("--axis", choices=tuple(_AXIS_FLAGS), help="abscissa (default: linear)")
    p.add_argument("--output", help="CSV path (default: mi_<scheme>.csv)")
    p.add_argument("--check", action="store_true",
                   help="run the qpsk = 2 x bpsk consistency check (needs --scheme qpsk) and exit")
    p.add_argument("--config", help=config_help)
    p.set_defaults(func=cmd_mi)

    p = sub.add_parser("cocktail", help="cocktail-BPSK rate and gain datasets")
    p.add_argument("--ratio", type=ratio_arg, action="append",
                   help=f"alpha/beta ratio, > 1 (repeatable; default {' '.join(f'{r:g}' for r in DEFAULT_RATIOS)})")
    p.add_argument("--grid", type=_positive_grid_arg, help=grid_help + " (default: 0.001:100:log:60)")
    p.add_argument("--axis", choices=tuple(_AXIS_FLAGS), help="abscissa (default: ebn0)")
    p.add_argument("--prefix", help="output file prefix (default: cocktail)")
    p.add_argument("--plot", action="store_true", help="also render SVG charts")
    p.add_argument("--report-limit", action="store_true",
                   help="print the low-SNR limiting Eb/N0 per ratio instead of writing datasets")
    p.add_argument("--config", help=config_help)
    p.set_defaults(func=cmd_cocktail)

    p = sub.add_parser("simulate", help="seeded Monte Carlo link simulation")
    p.add_argument("--alpha", type=positive_float, required=True)
    p.add_argument("--beta", type=positive_float, required=True)
    p.add_argument("--noise-var", type=positive_float, required=True, help="noise variance per real dimension")
    p.add_argument("--n", type=positive_int, default=10000, help="number of symbols")
    p.add_argument("--seed", type=_seed_arg, default=0, help="integer in [0, 2**64)")
    p.add_argument("--mode", choices=tuple(_MODE_FLAGS), default="dd",
                   help="dd = decision-directed, genie = error-free first stream")
    p.add_argument("--workers", type=positive_int, default=1,
                   help="parallel shard workers, capped at the available cores")
    p.add_argument("--output", help="JSON report path (default: print to stdout)")
    p.add_argument("--config", help=config_help)
    p.set_defaults(func=cmd_simulate)

    return parser


# Flags that a mode never reads, with their defaults. The parser leaves them
# None (False for a switch), so that main can reject one given with the mode,
# and fills in the default otherwise.
_UNREAD_IN_MODE = {
    "check": {"axis": "linear", "output": None},
    "report_limit": {"grid": grid_arg("0.001:100:log:60"), "axis": "ebn0", "prefix": "cocktail", "plot": False},
}


def _resolve_mode_flags(parser, args) -> None:
    """Usage error for a flag that ``--check`` or ``--report-limit`` would
    ignore; otherwise fill in the defaults of the flags it leaves unread."""
    for mode, unread in _UNREAD_IN_MODE.items():
        if not hasattr(args, mode):
            continue
        for dest, default in unread.items():
            value = getattr(args, dest)
            if getattr(args, mode) and value is not None and value is not False:
                parser.error(f"--{dest} has no effect with --{mode.replace('_', '-')}")
            if value is None:
                setattr(args, dest, default)
    if getattr(args, "check", False) and args.scheme != "qpsk":
        parser.error(f"--scheme {args.scheme} has no effect with --check, which checks qpsk")


def _load_config(argv) -> dict:
    """The JSON object in the ``--config`` file named in argv; {} without one."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if not path:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"config file {path!r} must hold a JSON object")
    return cfg


def _as_flags(key: str, value) -> list:
    """A config entry as typed flags: one per (list) value, bare for true, none for false or null."""
    flag = "--" + key.replace("_", "-")
    values = value if isinstance(value, list) else [value]
    return [flag if v is True else f"{flag}={v}" for v in values if v is not False and v is not None]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        cfg = _load_config(argv)
        flags = {k: _as_flags(k, v) for k, v in cfg.items()}
        # The file's flags go right after the command name, so explicit
        # flags, later in argv, override them.
        args = parser.parse_args(argv[:1] + [f for fs in flags.values() for f in fs] + argv[1:])
        for key, value in cfg.items():
            # argparse also takes a prefix of a flag name, so check the key.
            if not hasattr(args, key):
                parser.error(f"config key {key!r} is not a flag of {args.command!r}")
            parsed = getattr(args, key)
            if isinstance(value, list) and not isinstance(parsed, list):
                parser.error(f"config key {key!r}: a list needs a repeatable flag and one or more values")
            if isinstance(parsed, list) and len(parsed) > len(flags[key]):
                del parsed[: len(flags[key])]  # explicit repeated flags replace the file's values
        _resolve_mode_flags(parser, args)
        return args.func(args)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"cbpsk: error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
