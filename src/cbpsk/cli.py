"""Command-line front end: grid parsing, experiment execution, CSV/JSON
emission with run manifests, and optional SVG charts.

Six commands: ``capacity``, ``mi`` and ``cocktail`` write rate datasets,
``simulate`` runs the Monte Carlo link, ``check`` tests the 2-D quadrature
against qpsk turned by pi/4 = 2 x bpsk, and ``limit`` prints the low-SNR
limiting Eb/N0.
Each command takes its own flags and ``--config``; any other flag is a
usage error. A command only computes: it returns its outputs as
``(path, text)`` pairs, a falsy path meaning stdout, and :func:`main`
writes them and the run manifest.

A ``--grid`` flag ``start:stop:lin|log:count`` is only split here:
:mod:`cbpsk.sweep` builds and checks every grid, and its first and last
points are exactly ``start`` and ``stop``.

Exit codes: 0 on success, 2 for usage errors (bad flags, malformed grids,
``--snr`` values not strictly ascending, out-of-range or repeated ratios,
unreadable config files), 3 for numeric or domain failures during
execution (a ValueError or any ArithmeticError).

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
from .cocktail import CocktailParams, _eb_over_n0, eb_over_n0
from .linksim import SimConfig, _available_cores, run_link
from .mi import Constellation, NoiseModel, _integer, _real, awgn_capacity, constellation_mi, low_snr_capacity
from .sweep import (
    CONVENTIONAL_SCHEMES,
    DEFAULT_RATIOS,
    SweepSpec,
    _ascending,
    _distinct,
    _grid,
    cocktail_gain_curves,
    cocktail_rate_curves,
    modulation_rate_curves,
    scheme_rate,
    sweep_to_table,
)
from .svgchart import render_line_chart

EXIT_OK = 0
EXIT_NUMERIC = 3

OUTPUT_DIR_ENV = "CBPSK_OUTPUT_DIR"

# QPSK turned by pi/4, unit energy: not an axis product, so ``check`` runs
# the 2-D tensor rule on it.
_TURNED_QPSK = Constellation(((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)))

_MODE_FLAGS = {"dd": "decision_directed", "genie": "genie_aided"}
# The names of a parsed namespace that are no setting of its command: the
# dispatch entries main reads and the config file itself. A config file
# cannot set them, and the manifest does not list them.
_NOT_SETTINGS = ("func", "parser", "command", "config")
_AXIS_FLAGS = {"linear": "linear_snr", "ebn0": "eb_n0_db"}


def grid_arg(spec: str):
    """Split a grid flag ``start:stop:lin|log:count`` for :func:`cbpsk.sweep._grid`,
    which builds the grid and checks it; a malformed flag is a usage error."""
    parts = spec.split(":")
    if len(parts) != 4 or parts[2] not in ("lin", "log"):
        raise argparse.ArgumentTypeError(f"grid must look like start:stop:lin|log:count, got {spec!r}")
    try:
        return _grid(float(parts[0]), float(parts[1]), int(parts[3]), log=parts[2] == "log")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"grid {spec!r}: {exc}") from None


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


def _int_arg(s: str, what: str, *bounds) -> int:
    """``s`` as an integer held to the package's rule, with ``bounds`` as in
    :func:`cbpsk.mi._integer`; a usage error expecting ``what`` otherwise."""
    try:
        return _integer(what, int(s), *bounds)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected {what}, got {s!r}") from None


def ratio_arg(s: str) -> float:
    return _float_arg(s, "a ratio > 1 (the scheme requires alpha > beta > 0)", above=1.0)


def nonneg_float(s: str) -> float:
    return _float_arg(s, "a finite value >= 0", at_least=0.0)


def positive_float(s: str) -> float:
    return _float_arg(s, "a finite value > 0", above=0.0)


def positive_int(s: str) -> int:
    return _int_arg(s, "an integer >= 1", 1)


def _seed_arg(s: str) -> int:
    return _int_arg(s, "an integer in [0, 2**64)", 0, 2**64)


def _csv_text(rows) -> str:
    # Every x and y is a plain float: each x passes the package's number
    # rule, which stores plain floats. A y may be inf: low_snr_capacity
    # passes the float range from SNR 1.246e308 on, and prints "inf".
    lines = ["curve,x,y"]
    lines.extend(f"{label},{x:.12g},{y:.12g}" for label, x, y in rows)
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


def _write_manifest(args, outputs, started: float) -> None:
    config = {k: v for k, v in vars(args).items() if k not in _NOT_SETTINGS}
    manifest = {
        "command": args.command,
        "config": config,
        "version": __version__,
        "seeds": [args.seed] if "seed" in config else [],
        "outputs": [os.path.abspath(o) for o in outputs],
        "duration_s": round(time.monotonic() - started, 6),
    }
    stem, _ = os.path.splitext(outputs[0])
    _write_text(stem + ".manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def cmd_capacity(args) -> list:
    values = tuple(args.snr) if args.snr else args.grid
    rows = [("capacity", v, awgn_capacity(v)) for v in values]
    rows += [("low_snr", v, low_snr_capacity(v)) for v in values]
    return [(args.output, _csv_text(rows))]


def cmd_mi(args) -> list:
    spec = SweepSpec(snr_grid=args.grid, schemes=(args.scheme,), axis_mode=_AXIS_FLAGS[args.axis])
    curves = modulation_rate_curves(spec)
    return [(args.output or f"mi_{args.scheme}.csv", _csv_text(sweep_to_table(curves)))]


def cmd_check(args) -> list:
    # The 2-D quadrature route must agree with two independent 1-D
    # detections at the same per-dimension SNR. QPSK itself is an axis
    # product and runs as its 1-D rail, so the check turns it by pi/4,
    # which leaves the rate alone and sends it through the 2-D tensor rule.
    # The bpsk half's noise variance 1 / (rho / 2) is the first to overflow,
    # at the grid's first and least point; the error names that point, as
    # the rate curves of mi and cocktail do.
    if math.isinf(1.0 / (args.grid[0] / 2.0)):
        raise ValueError(f"snr_linear is too small for a finite noise variance, got {args.grid[0]!r}")
    worst = 0.0
    for rho in args.grid:
        dev = abs(constellation_mi(_TURNED_QPSK, NoiseModel(1.0 / rho)) - 2.0 * scheme_rate("bpsk", rho / 2.0))
        worst = max(worst, dev)
    if worst > 1e-8:
        raise ValueError(f"consistency check failed: |qpsk turned by pi/4 - 2*bpsk| up to {worst:.3e}")
    text = f"consistency check passed: |qpsk turned by pi/4 - 2*bpsk| <= {worst:.3e} over {len(args.grid)} points\n"
    return [(None, text)]


def cmd_cocktail(args) -> list:
    ratios = tuple(args.ratio) if args.ratio else DEFAULT_RATIOS
    axis_mode = _AXIS_FLAGS[args.axis]
    spec = SweepSpec(snr_grid=args.grid, ratios=ratios, schemes=("capacity", "bpsk"), axis_mode=axis_mode)
    datasets = [
        ("rates", cocktail_rate_curves(spec), "achievable data rate"),
        ("gain", cocktail_gain_curves(spec), "rate minus capacity"),
    ]
    outputs = [(f"{args.prefix}_{name}.csv", _csv_text(sweep_to_table(curves))) for name, curves, _ in datasets]
    if args.plot:
        log_axis = axis_mode == "linear_snr"
        x_label = "Ein/noise (linear)" if log_axis else "Eb/N0 (dB)"
        outputs += [
            (f"{args.prefix}_{name}.svg", render_line_chart(curves, title, x_label, "bits/sec/Hz", log_x=log_axis))
            for name, curves, title in datasets
        ]
    return outputs


def cmd_limit(args) -> list:
    ratios = tuple(args.ratio) if args.ratio else DEFAULT_RATIOS
    # At zero SNR, energy and rate 0, the Eb/N0 rule gives the low-SNR limit.
    cap_limit_db = 10.0 * math.log10(_eb_over_n0(0.0, 0.0))
    lines = []
    for r in ratios:
        params = CocktailParams.from_ratio(r, 1e-4)
        measured_db = 10.0 * math.log10(eb_over_n0(params, NoiseModel(1.0)))
        closed_db = 10.0 * math.log10(_eb_over_n0(0.0, 0.0, params))
        gain_db = cap_limit_db - measured_db
        lines.append(
            f"ratio {r:.12g}: limiting Eb/N0 {measured_db:.2f} dB "
            f"(closed form {closed_db:.2f} dB), gain {gain_db:.2f} dB "
            f"over the {cap_limit_db:.2f} dB capacity limit\n"
        )
    return [(None, "".join(lines))]


def cmd_simulate(args) -> list:
    config = SimConfig(
        params=CocktailParams(args.alpha, args.beta),
        noise=NoiseModel(args.noise_var),
        n_symbols=args.n,
        seed=args.seed,
        detection_mode=_MODE_FLAGS[args.mode],
    )
    report = run_link(config, max_workers=_available_cores())
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
    return [(args.output, json.dumps(doc, indent=2, sort_keys=True) + "\n")]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cbpsk",
        description="Achievable-data-rate laboratory for cocktail BPSK over AWGN channels.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    grid_help = "SNR grid as start:stop:lin|log:count (default: %(default)s)"
    axis_help = "abscissa (default: %(default)s)"
    ratio_help = f"alpha/beta ratio, > 1 (repeatable; default {' '.join(f'{r:g}' for r in DEFAULT_RATIOS)})"

    p = sub.add_parser("capacity", help="Shannon capacity and its low-SNR approximation")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--snr", type=nonneg_float, action="append", help="one linear SNR value (repeatable)")
    g.add_argument("--grid", type=grid_arg, help="SNR grid as start:stop:lin|log:count")
    p.add_argument("--output", help="CSV path (default: print to stdout)")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("mi", help="rate curve of one modulation scheme")
    p.add_argument("--scheme", choices=[s for s in CONVENTIONAL_SCHEMES if s != "capacity"], required=True)
    p.add_argument("--grid", type=_positive_grid_arg, default="0.001:100:log:40", help=grid_help)
    p.add_argument("--axis", choices=tuple(_AXIS_FLAGS), default="linear", help=axis_help)
    p.add_argument("--output", help="CSV path (default: mi_<scheme>.csv)")
    p.set_defaults(func=cmd_mi)

    p = sub.add_parser("check", help="check the 2-D quadrature: qpsk turned by pi/4 = 2 x bpsk at half the SNR")
    p.add_argument("--grid", type=_positive_grid_arg, default="0.001:100:log:40", help=grid_help)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("cocktail", help="cocktail-BPSK rate and gain datasets")
    p.add_argument("--ratio", type=ratio_arg, action="append", help=ratio_help)
    p.add_argument("--grid", type=_positive_grid_arg, default="0.001:100:log:60", help=grid_help)
    p.add_argument("--axis", choices=tuple(_AXIS_FLAGS), default="ebn0", help=axis_help)
    p.add_argument("--prefix", default="cocktail", help="output file prefix (default: %(default)s)")
    p.add_argument("--plot", action="store_true", help="also render SVG charts")
    p.set_defaults(func=cmd_cocktail)

    p = sub.add_parser("limit", help="low-SNR limiting Eb/N0 of cocktail BPSK per ratio")
    p.add_argument("--ratio", type=ratio_arg, action="append", help=ratio_help)
    p.set_defaults(func=cmd_limit)

    p = sub.add_parser("simulate", help="seeded Monte Carlo link simulation")
    p.add_argument("--alpha", type=positive_float, required=True)
    p.add_argument("--beta", type=positive_float, required=True)
    p.add_argument("--noise-var", type=positive_float, required=True,
                   help="total noise power (each real dimension carries half)")
    p.add_argument("--n", type=positive_int, default=10000, help="number of symbols (default: %(default)s)")
    p.add_argument("--seed", type=_seed_arg, default=0, help="integer in [0, 2**64) (default: %(default)s)")
    p.add_argument("--mode", choices=tuple(_MODE_FLAGS), default="dd",
                   help="dd = decision-directed, genie = error-free first stream (default: %(default)s)")
    p.add_argument("--output", help="JSON report path (default: print to stdout)")
    p.set_defaults(func=cmd_simulate)

    for p in sub.choices.values():
        p.add_argument("--config", help="JSON file of flag values; explicit flags override it")
        # main raises the usage errors it finds itself through the
        # command's parser, which prints the command's usage line.
        p.set_defaults(parser=p)
    return parser


def _load_config(parser, argv) -> dict:
    """The JSON object in the ``--config`` file named in argv; {} without one.
    A file that cannot be read or holds no JSON object is a usage error."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if not path:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        parser.error(f"config file {path!r}: {exc}")
    if not isinstance(cfg, dict):
        parser.error(f"config file {path!r} must hold a JSON object")
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
        cfg = _load_config(parser, argv)
        flags = {k: _as_flags(k, v) for k, v in cfg.items()}
        # The file's flags go right after the command name, so explicit
        # flags, later in argv, override them. Unknown flags are left over,
        # so that a config key naming none is refused as a key, below.
        args, unknown = parser.parse_known_args(argv[:1] + [f for fs in flags.values() for f in fs] + argv[1:])
        usage_error = args.parser.error
        for key, value in cfg.items():
            if key == "config":  # the --config in argv would win over it unseen
                usage_error(f"config key 'config' in {args.config!r}: a config file cannot name another")
            # argparse also takes a prefix of a flag name, so check the key.
            if key in _NOT_SETTINGS or not hasattr(args, key):
                usage_error(f"config key {key!r} is not a flag of {args.command!r}")
            parsed = getattr(args, key)
            if isinstance(value, list) and not isinstance(parsed, list):
                usage_error(f"config key {key!r}: a list needs a repeatable flag and one or more values")
            if isinstance(parsed, list) and len(parsed) > len(flags[key]):
                del parsed[: len(flags[key])]  # explicit repeated flags replace the file's values
        if unknown:  # what parse_args refuses: what argv holds that the command does not take
            parser.error(f"unrecognized arguments: {' '.join(unknown)}")
        # Checked once the file's values and the flags are merged, so both
        # obey one rule: --snr values like the points of a --grid, and
        # --ratio values because each names its curves.
        if getattr(args, "snr", None) and not _ascending(args.snr):
            usage_error(f"argument --snr: values must be strictly ascending, got {args.snr}")
        if getattr(args, "ratio", None) and not _distinct(args.ratio):
            usage_error(f"argument --ratio: values must differ in their first 12 significant digits, got {args.ratio}")
        started = time.monotonic()
        written = []
        for path, text in args.func(args):
            if path:  # an empty --output prints, like no --output
                written.append(_write_text(_resolve(path), text))
            else:
                sys.stdout.write(text)
        if written:
            _write_manifest(args, written, started)
        return EXIT_OK
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"cbpsk: error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
