"""Tests for the command-line front end.

Most cases drive main() in-process; byte-identical output contracts also run
through a real subprocess in the acceptance suite.
"""

import argparse
import hashlib
import importlib
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from cbpsk import __version__, cli
from cbpsk.cli import EXIT_NUMERIC, EXIT_OK, grid_arg, main
from cbpsk.sweep import cocktail_rate_curves

GOLDEN_CAPACITY_CSV = (
    "curve,x,y\n"
    "capacity,1,1\n"
    "capacity,2,1.58496250072\n"
    "capacity,3,2\n"
    "low_snr,1,1.44269504089\n"
    "low_snr,2,2.88539008178\n"
    "low_snr,3,4.32808512267\n"
)

# `cocktail --ratio 1.5 --ratio 3.5 --grid 0.01:10:log:4` on each axis.
GOLDEN_COCKTAIL_ARGV = ("cocktail", "--ratio", "1.5", "--ratio", "3.5", "--grid", "0.01:10:log:4")
GOLDEN_COCKTAIL = {
    "ebn0": {
        "cocktail_rates.csv": (
            "curve,x,y\n"
            "capacity,-1.57012060436,0.0143552929771\n"
            "capacity,-1.38313827807,0.13750352375\n"
            "capacity,0,1\n"
            "capacity,4.60995249521,3.45943161864\n"
            "bpsk,-1.54866815901,0.0142845583004\n"
            "bpsk,-1.18648516287,0.131416082353\n"
            "bpsk,1.41792804637,0.72145159079\n"
            "bpsk,10.0000724045,0.999983328394\n"
            "cocktail r=1.5,-2.3236998635,0.0170753646263\n"
            "cocktail r=1.5,-1.84632496787,0.152979239214\n"
            "cocktail r=1.5,0.9268698053,0.807817057822\n"
            "cocktail r=1.5,7.28336461324,1.86923342649\n"
            "cocktail r=3.5,-3.34199092861,0.0215873380692\n"
            "cocktail r=3.5,-2.79379794347,0.190274151676\n"
            "cocktail r=3.5,0.601701254296,0.870622475705\n"
            "cocktail r=3.5,8.48866248904,1.41622987376\n"
        ),
        "cocktail_gain.csv": (
            "curve,x,y\n"
            "gain r=1.5,-2.3236998635,0.00272007164921\n"
            "gain r=1.5,-1.84632496787,0.0154757154639\n"
            "gain r=1.5,0.9268698053,-0.192182942178\n"
            "gain r=1.5,7.28336461324,-1.59019819214\n"
            "gain r=3.5,-3.34199092861,0.00723204509213\n"
            "gain r=3.5,-2.79379794347,0.0527706279265\n"
            "gain r=3.5,0.601701254296,-0.129377524295\n"
            "gain r=3.5,8.48866248904,-2.04320174488\n"
        ),
    },
    "linear": {
        "cocktail_rates.csv": (
            "curve,x,y\n"
            "capacity,0.01,0.0143552929771\n"
            "capacity,0.1,0.13750352375\n"
            "capacity,1,1\n"
            "capacity,10,3.45943161864\n"
            "bpsk,0.01,0.0142845583004\n"
            "bpsk,0.1,0.131416082353\n"
            "bpsk,1,0.72145159079\n"
            "bpsk,10,0.999983328394\n"
            "cocktail r=1.5,0.01,0.0170753646263\n"
            "cocktail r=1.5,0.1,0.152979239214\n"
            "cocktail r=1.5,1,0.807817057822\n"
            "cocktail r=1.5,10,1.86923342649\n"
            "cocktail r=3.5,0.01,0.0215873380692\n"
            "cocktail r=3.5,0.1,0.190274151676\n"
            "cocktail r=3.5,1,0.870622475705\n"
            "cocktail r=3.5,10,1.41622987376\n"
        ),
        "cocktail_gain.csv": (
            "curve,x,y\n"
            "gain r=1.5,0.01,0.00272007164921\n"
            "gain r=1.5,0.1,0.0154757154639\n"
            "gain r=1.5,1,-0.192182942178\n"
            "gain r=1.5,10,-1.59019819214\n"
            "gain r=3.5,0.01,0.00723204509213\n"
            "gain r=3.5,0.1,0.0527706279265\n"
            "gain r=3.5,1,-0.129377524295\n"
            "gain r=3.5,10,-2.04320174488\n"
        ),
    },
}

FIGURE_DIGESTS = {
    "cocktail_rates.csv": "3b0645d4d09f99a31fed8dd03e38ed51afa1366ea012530d41b81f6645e70869",
    "cocktail_gain.csv": "ad28fe1f27abc630d1e7f86228d8843bf97f693334956681c0e6dadb8a74c1d7",
    "cocktail_rates.svg": "6d65b78e1efee9d97b8a26336746a001d492fc124205d4f486f171a18eab1488",
    "cocktail_gain.svg": "53b7ad9ce8c34cbc9544bf18e1311356d7503c3dc5c67f787418e127802025c1",
}

# `cbpsk mi --scheme <scheme> --grid 0.001:100:log:60 --axis ebn0`: each
# conventional scheme's curve of the capacity-comparison figure.
MI_DIGESTS = {
    "bpsk": "3b9110b3a1bd331f34c2cf609f7d0728b2f58a05bdc732438e88dd599f142866",
    "4ask": "ca35ca9a0eb1165ddca6553923b553576e7ce7020151a27cc88a367ee328625c",
    "qpsk": "650e20acf1978717716d9c29da785b6beb0d73482374ca4d253ecc0cb66870d0",
    "8psk": "5bd88e5fc40fafda3988522459ee31446304b8b55d7ef8fa5dcad38f2c4b3589",
}

# The same four ratios and grid on the linear-SNR axis, which draws the
# charts with a log x axis.
LOG_FIGURE_DIGESTS = {
    "cocktail_rates.csv": "9f6bd62459056ad80d56483392b68a5ea4a42b380aae18dce1da57dca6d0101e",
    "cocktail_gain.csv": "cabe20ebc69a551880de20b0703c108c421b3ad6a8300c9afc0301b30a8e91a4",
    "cocktail_rates.svg": "ea487c6c7af09b45b2e600d4bd1e02e89d8797f68708a78dd35a65407c18857c",
    "cocktail_gain.svg": "1b90e9c82e6384c8f72d15d062d2760fb0638b9efa26660362f175a0b2d9d0de",
}


ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGridFlag:
    def test_lin(self):
        assert grid_arg("1:3:lin:3") == (1.0, 2.0, 3.0)

    def test_one_point_is_the_start(self):
        assert grid_arg("1:2:lin:1") == (1.0,)

    def test_log(self):
        g = grid_arg("0.001:100:log:10")
        assert len(g) == 10
        assert g[0] == pytest.approx(0.001, rel=1e-12)
        assert g[-1] == pytest.approx(100.0, rel=1e-12)
        assert all(b > a for a, b in zip(g, g[1:]))

    @pytest.mark.parametrize(
        "bad",
        [
            "1:3:lin", "1:3:geom:3", "a:3:lin:3", "3:1:lin:3", "1:3:lin:0", "-1:1:lin:3", "-1:1:lin:1",
            "5:1:lin:1", "1:-1:log:1", "0:1:log:1",
        ],
    )
    def test_malformed(self, bad):
        with pytest.raises(Exception):
            grid_arg(bad)

    @pytest.mark.parametrize("mode", ["lin", "log"])
    def test_end_points_are_exact_over_the_float_range(self, mode):
        rng = random.Random(7)
        bounds = [(5e-324, sys.float_info.max), (1e307, sys.float_info.max), (1e300, 1.7e308)]
        bounds += [tuple(sorted(10.0 ** rng.uniform(-323.3, 308.25) for _ in range(2))) for _ in range(400)]
        if mode == "lin":
            bounds.append((0.0, sys.float_info.max))
        for start, stop in bounds:
            for count in (1, 2, 3, 7):
                g = grid_arg(f"{start!r}:{stop!r}:{mode}:{count}")
                assert len(g) == count and g[0] == start and g[-1] == (stop if count > 1 else start)
                assert all(a < b for a, b in zip(g, g[1:]))


# Ranges one ulp wide: their three points cannot all differ, in either
# spacing.
REPEATING_GRIDS = ["1:1.0000000000000002:lin:3", "1:1.0000000000000002:log:3"]


class TestRepeatedGridPoints:
    @pytest.mark.parametrize("grid", REPEATING_GRIDS)
    def test_grid_arg_refuses_them(self, grid):
        with pytest.raises(argparse.ArgumentTypeError, match="strictly ascending"):
            grid_arg(grid)

    @pytest.mark.parametrize(
        "argv",
        [("capacity", "--output", "cap.csv"), ("mi", "--scheme", "bpsk"), ("cocktail",), ("check",)],
        ids=["capacity", "mi", "cocktail", "check"],
    )
    @pytest.mark.parametrize("grid", REPEATING_GRIDS)
    def test_grid_commands_exit_2_and_write_nothing(self, argv, grid, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CBPSK_OUTPUT_DIR", str(tmp_path))
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--grid", grid])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--grid" in captured.err and "strictly ascending" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


# Repeatable values that main refuses once a config file's values are merged
# with the flags: --snr values like the points of a --grid, and --ratio
# values because each names its curves, to 12 significant digits.
REFUSED_REPEATS = [
    pytest.param(("capacity", "--output", "cap.csv", "--snr", "1", "--snr", "1"), "--snr", "strictly ascending",
                 id="snr-repeats"),
    pytest.param(("capacity", "--output", "cap.csv", "--snr", "2", "--snr", "1"), "--snr", "strictly ascending",
                 id="snr-descends"),
    pytest.param(("cocktail", "--ratio", "3.5", "--ratio", "3.5"), "--ratio", "12 significant digits",
                 id="cocktail-ratio-repeats"),
    pytest.param(("cocktail", "--ratio", "3.5", "--ratio", "3.5000000000000004"), "--ratio", "12 significant digits",
                 id="cocktail-ratio-prints-alike"),
    pytest.param(("limit", "--ratio", "3.5", "--ratio", "3.5"), "--ratio", "12 significant digits",
                 id="limit-ratio-repeats"),
]


class TestRepeatableValues:
    @pytest.mark.parametrize("argv,flag,rule", REFUSED_REPEATS)
    def test_exit_2_and_write_nothing(self, argv, flag, rule, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CBPSK_OUTPUT_DIR", str(tmp_path))
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert flag in captured.err and rule in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_usage_line_is_the_commands(self, tmp_path, capsys):
        # main's own checks print the usage line that argparse prints for a
        # bad value of one of the command's flags: the --snr order, and a
        # config key that argparse takes as a prefix of a flag name.
        with pytest.raises(SystemExit) as exc:
            main(["capacity", "--snr", "2", "--snr", "1"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: cbpsk capacity ")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sch": "bpsk"}))
        with pytest.raises(SystemExit) as exc:
            main(["mi", "--config", str(cfg)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: cbpsk mi ") and "config key 'sch'" in err

    @pytest.mark.parametrize("argv,entries,flag", [
        (("capacity",), {"snr": [2, 1]}, "--snr"),
        (("cocktail",), {"ratio": [3.5, 3.5]}, "--ratio"),
        (("limit",), {"ratio": [3.5, 3.5]}, "--ratio"),
    ], ids=["snr-list", "cocktail-ratio-list", "limit-ratio-list"])
    def test_config_values_are_checked_too(self, argv, entries, flag, tmp_path, capsys, monkeypatch):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        monkeypatch.setenv("CBPSK_OUTPUT_DIR", str(out_dir))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entries))
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", str(cfg)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert flag in captured.err
        assert captured.out == ""
        assert not any(out_dir.iterdir())

    def test_check_runs_on_the_merged_values(self, tmp_path, capsys):
        # The explicit flags replace the file's descending list.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"snr": [2, 1]}))
        code, out, _ = run_cli(capsys, "capacity", "--config", str(cfg), "--snr", "1", "--snr", "2")
        assert code == EXIT_OK
        assert [l.split(",")[1] for l in out.splitlines() if l.startswith("capacity,")] == ["1", "2"]

    def test_ratios_apart_in_12_digits_get_their_own_curves(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CBPSK_OUTPUT_DIR", str(tmp_path))
        code, _, _ = run_cli(capsys, "cocktail", "--ratio", "3.5", "--ratio", "3.5000001", "--grid", "0.1:1:log:3")
        assert code == EXIT_OK
        for name, kind in (("cocktail_rates.csv", "cocktail"), ("cocktail_gain.csv", "gain")):
            labels = [l.split(",")[0] for l in (tmp_path / name).read_text().splitlines()]
            assert {l: labels.count(l) for l in labels if l.startswith(kind)} == {
                f"{kind} r=3.5": 3, f"{kind} r=3.5000001": 3
            }
        code, out, _ = run_cli(capsys, "limit", "--ratio", "3.5", "--ratio", "3.5000001")
        assert code == EXIT_OK
        assert [l.split(":")[0] for l in out.splitlines()] == ["ratio 3.5", "ratio 3.5000001"]


class TestCapacity:
    def test_single_snr_row(self, capsys):
        code, out, _ = run_cli(capsys, "capacity", "--snr", "1")
        assert code == EXIT_OK
        assert "capacity,1,1\n" in out

    def test_zero_snr_row(self, capsys):
        code, out, _ = run_cli(capsys, "capacity", "--snr", "0")
        assert code == EXIT_OK
        assert "capacity,0,0\n" in out

    def test_grid_rows_ascending(self, capsys):
        code, out, _ = run_cli(capsys, "capacity", "--grid", "0.001:100:log:10")
        assert code == EXIT_OK
        lines = [l for l in out.splitlines() if l.startswith("capacity,")]
        xs = [float(l.split(",")[1]) for l in lines]
        assert len(xs) == 10
        assert xs == sorted(xs)

    def test_golden_file_bytes(self, tmp_path, capsys):
        out_file = tmp_path / "cap.csv"
        code, _, _ = run_cli(capsys, "capacity", "--grid", "1:3:lin:3", "--output", str(out_file))
        assert code == EXIT_OK
        assert out_file.read_bytes() == GOLDEN_CAPACITY_CSV.encode()

    def test_usage_error_without_values(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["capacity"])
        assert exc.value.code == 2

    def test_negative_grid_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["capacity", "--grid=-1:1:lin:3"])
        assert exc.value.code == 2
        assert "start must be a finite number >= 0" in capsys.readouterr().err

    def test_manifest_alongside_output(self, tmp_path, capsys):
        out_file = tmp_path / "cap.csv"
        run_cli(capsys, "capacity", "--snr", "2", "--output", str(out_file))
        manifest = json.loads((tmp_path / "cap.manifest.json").read_text())
        assert manifest["command"] == "capacity"
        assert manifest["version"] == __version__
        assert manifest["outputs"] == [str(out_file)]
        assert manifest["config"]["snr"] == [2.0]
        assert manifest["seeds"] == []

    def test_manifest_times_the_compute(self, tmp_path, capsys, monkeypatch):
        def slow_capacity(snr):
            time.sleep(0.05)
            return 1.0

        monkeypatch.setattr(cli, "awgn_capacity", slow_capacity)
        out_file = tmp_path / "cap.csv"
        code, _, _ = run_cli(capsys, "capacity", "--snr", "1", "--output", str(out_file))
        assert code == EXIT_OK
        assert json.loads((tmp_path / "cap.manifest.json").read_text())["duration_s"] >= 0.05


class TestMi:
    def test_bpsk_saturates(self, tmp_path, capsys):
        out_file = tmp_path / "mi.csv"
        code, _, _ = run_cli(
            capsys, "mi", "--scheme", "bpsk", "--grid", "10000:10001:lin:2", "--output", str(out_file)
        )
        assert code == EXIT_OK
        last = out_file.read_text().strip().splitlines()[-1]
        assert float(last.split(",")[2]) == pytest.approx(1.0, abs=1e-3)

    def test_unknown_scheme_exits_with_valid_names(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mi", "--scheme", "16qam"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "bpsk" in err and "8psk" in err

    def test_check_passes(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--grid", "0.01:10:log:4")
        assert code == EXIT_OK
        assert "passed" in out

    def test_check_alphabet_runs_the_2d_rule(self):
        # QPSK itself is an axis product and runs as its 1-D rail; turned by
        # pi/4 it is not, so the check exercises the 2-D tensor rule.
        plan = cli._TURNED_QPSK._plan
        assert plan.dimension == 2 and cli._TURNED_QPSK.dimension == 2
        assert cli._TURNED_QPSK.mean_energy() == 1.0

    def test_check_failure_is_numeric_error(self, capsys, monkeypatch):
        # Turned qpsk - 2 * bpsk = 1 - 2 = -1.
        monkeypatch.setattr(cli, "constellation_mi", lambda c, noise: 1.0)
        monkeypatch.setattr(cli, "scheme_rate", lambda scheme, rho: 1.0)
        code, out, err = run_cli(capsys, "check", "--grid", "1:2:lin:2")
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "consistency check failed" in err

    # The default grid, the figure's SNR range, and a grid from 1e-6 up: each
    # runs the 2-D rule at every order of the ladder.
    @pytest.mark.parametrize("grid,count", [((), 40), (("--grid", "1e-6:1e2:log:81"), 81)], ids=["default", "from-1e-6"])
    def test_check_passes_over_the_ladder(self, grid, count, capsys):
        code, out, err = run_cli(capsys, "check", *grid)
        assert code == EXIT_OK, err
        assert out.startswith("consistency check passed: ") and out.endswith(f" over {count} points\n")

    def test_eb_n0_axis_stays_flat_far_down_the_series(self, tmp_path, capsys):
        # At rho 1e-20 the bpsk rate is its series rho log2 e to every digit,
        # so each row's x = 10 log10(rho / rate) is the limit 10 log10(ln 2).
        out_file = tmp_path / "mi.csv"
        code, _, err = run_cli(
            capsys, "mi", "--scheme", "bpsk", "--grid", "1e-20:1e-19:log:3", "--axis", "ebn0", "--output", str(out_file)
        )
        assert code == EXIT_OK, err
        assert out_file.read_text() == (
            "curve,x,y\n"
            "bpsk,-1.59174538955,1.44269504089e-20\n"
            "bpsk,-1.59174538955,4.56220229824e-20\n"
            "bpsk,-1.59174538955,1.44269504089e-19\n"
        )

    def test_default_output_name(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CBPSK_OUTPUT_DIR", str(tmp_path))
        code, _, _ = run_cli(capsys, "mi", "--scheme", "4ask", "--grid", "1:2:lin:2")
        assert code == EXIT_OK
        assert (tmp_path / "mi_4ask.csv").exists()
        assert (tmp_path / "mi_4ask.manifest.json").exists()


FLOAT_MAX = "1.7976931348623157e308"


class TestGridAtTheTopOfTheFloats:
    # The last point is the stop itself, so no grid point overflows: each
    # run exits 0 with warnings as errors and nothing on stderr.
    @pytest.mark.parametrize(
        "argv, output",
        [
            pytest.param(("mi", "--scheme", "bpsk", "--grid", f"1e307:{FLOAT_MAX}:log:3", "--output", "mi.csv"),
                         "mi.csv", id="mi"),
            pytest.param(("cocktail", "--ratio", "3.5", "--grid", f"1e300:{FLOAT_MAX}:log:3", "--axis", "linear",
                          "--plot"), "cocktail_rates.csv", id="cocktail-linear"),
            pytest.param(("cocktail", "--ratio", "3.5", "--grid", f"1e300:{FLOAT_MAX}:log:3", "--axis", "ebn0",
                          "--plot"), "cocktail_rates.csv", id="cocktail-ebn0"),
            pytest.param(("capacity", "--grid", f"0:{FLOAT_MAX}:lin:3", "--output", "cap.csv"), "cap.csv",
                         id="capacity"),
        ],
    )
    def test_exits_0_with_nothing_on_stderr(self, argv, output, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "cbpsk", *argv],
            cwd=tmp_path, capture_output=True, text=True, timeout=120,
            env={**os.environ, "CBPSK_OUTPUT_DIR": str(tmp_path)},
        )
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        assert (tmp_path / output).is_file()
        if argv[0] == "mi":
            assert (tmp_path / output).read_text().splitlines()[-1] == "bpsk,1.79769313486e+308,1"


def record_curves(monkeypatch, name):
    """The curves that ``cli.<name>`` builds for the command, kept at full
    precision; the CSV prints 12 significant digits."""
    built = []
    build = getattr(cli, name)

    def recording(spec):
        curves = build(spec)
        built.extend(curves)
        return curves

    monkeypatch.setattr(cli, name, recording)
    return built


TOP_GRID = "1e307:1.7e308:log:3"

# (argv, the curve builder cli calls, the CSV, one line it must hold, the
# exact rate of that line's curve at every point, or None): the alphabets
# saturate at log2 M, where the noise variance in the unit of the kernel
# plan falls to its floor. 8psk reads 3 - 3 * 2**-51 at every point on the
# AVX-512 host the pins were taken on, so only its 12 printed digits are
# asserted (ROADMAP item 24).
TOP_ROWS = [
    pytest.param(("mi", "--scheme", "8psk", "--grid", TOP_GRID), "modulation_rate_curves", "mi_8psk.csv",
                 "8psk,1.7e+308,3", None, id="8psk"),
    pytest.param(("mi", "--scheme", "4ask", "--grid", TOP_GRID), "modulation_rate_curves", "mi_4ask.csv",
                 "4ask,4.12310562562e+307,2", 2.0, id="4ask"),
    pytest.param(("mi", "--scheme", "qpsk", "--grid", TOP_GRID, "--axis", "ebn0"), "modulation_rate_curves",
                 "mi_qpsk.csv", "qpsk,3079.29418926,2", 2.0, id="qpsk-ebn0"),
    # bpsk_mi caps q = A / sigma at 2^500 here, the cap the simulator puts
    # on its means.
    pytest.param(("cocktail", "--ratio", "3.5", "--grid", "1e300:1.7e308:log:3"), "cocktail_rate_curves",
                 "cocktail_rates.csv", "cocktail r=3.5,3079.29418926,2", 2.0, id="cocktail"),
]


class TestRatesAtTheTopOfTheFloats:
    # Warnings are errors, so an exponent that overflowed would fail the run.
    @pytest.mark.parametrize("argv,builder,output,line,rate", TOP_ROWS)
    def test_rates_saturate_with_nothing_on_stderr(self, argv, builder, output, line, rate, tmp_path, capsys,
                                                   monkeypatch):
        monkeypatch.setenv("CBPSK_OUTPUT_DIR", str(tmp_path))
        built = record_curves(monkeypatch, builder)
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_OK and err == "", err
        assert line in (tmp_path / output).read_text().splitlines()
        if rate is not None:
            (curve,) = [c for c in built if c.label == line.split(",")[0]]
            assert curve.ys == (rate,) * 3


class TestNumericFailures:
    def test_any_arithmetic_error_exits_3_and_writes_nothing(self, tmp_path, capsys, monkeypatch):
        def overflowing(*args):
            raise OverflowError("math range error")

        monkeypatch.setenv("CBPSK_OUTPUT_DIR", str(tmp_path))
        monkeypatch.setattr(cli, "cmd_capacity", overflowing)
        code, out, err = run_cli(capsys, "capacity", "--snr", "1", "--output", "cap.csv")
        assert code == EXIT_NUMERIC
        assert out == "" and err.startswith("cbpsk: error:")
        assert list(tmp_path.iterdir()) == []

    # 1 / 1e-310 overflows: the first point of a scheme curve, from mi and
    # from the cocktail figure's reference rows, has no noise variance.
    @pytest.mark.parametrize("argv", [("mi", "--scheme", "bpsk"), ("cocktail", "--ratio", "3.5", "--axis", "linear")],
                             ids=["mi", "cocktail"])
    def test_point_without_a_finite_noise_variance_exits_3_with_scheme_rates_error(self, argv, tmp_path, capsys,
                                                                                 monkeypatch):
        monkeypatch.setenv("CBPSK_OUTPUT_DIR", str(tmp_path))
        code, out, err = run_cli(capsys, *argv, "--grid", "1e-310:1e-300:log:3")
        assert code == EXIT_NUMERIC
        assert err == "cbpsk: error: snr_linear is too small for a finite noise variance, got 1e-310\n"
        assert out == "" and list(tmp_path.iterdir()) == []


class TestGridAtZero:
    # A rate, and so its Eb/N0, needs SNR > 0; the capacity rows exist at 0.
    @pytest.mark.parametrize("argv", [("mi", "--scheme", "bpsk"), ("cocktail",), ("cocktail", "--axis", "linear")])
    def test_rate_commands_reject_it_as_usage_error(self, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CBPSK_OUTPUT_DIR", str(tmp_path))
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--grid", "0:1:lin:3"])
        assert exc.value.code == 2
        assert "--grid" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_capacity_accepts_it(self, capsys):
        code, out, _ = run_cli(capsys, "capacity", "--grid", "0:1:lin:3")
        assert code == EXIT_OK
        assert out.splitlines()[1] == "capacity,0,0"


def csv_xs(path) -> dict:
    """The x column of a written curve CSV, per curve label."""
    xs = {}
    for row in path.read_text().splitlines()[1:]:
        label, x, _ = row.split(",")
        xs.setdefault(label, []).append(float(x))
    return xs


def assert_each_curve_ascends(xs: dict) -> None:
    # The reference curves and the cocktail curve of the dense grids: an
    # axis that turns back there shows a low-SNR rate that lost digits.
    assert list(xs) == ["capacity", "bpsk", "cocktail r=3.5"]
    for label, values in xs.items():
        assert len(values) == 40 and all(a < b for a, b in zip(values, values[1:])), label


class TestCocktail:
    def test_ratio_at_most_one_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cocktail", "--ratio", "1.0"])
        assert exc.value.code == 2
        assert "alpha > beta > 0" in capsys.readouterr().err

    def test_default_run_lists_outputs_in_manifest(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CBPSK_OUTPUT_DIR", str(tmp_path))
        code, _, _ = run_cli(capsys, "cocktail", "--ratio", "3.5", "--grid", "0.01:10:log:6")
        assert code == EXIT_OK
        manifest = json.loads((tmp_path / "cocktail_rates.manifest.json").read_text())
        emitted = {os.path.basename(p) for p in manifest["outputs"]}
        assert emitted == {"cocktail_rates.csv", "cocktail_gain.csv"}
        for name in emitted:
            assert (tmp_path / name).exists()

    def test_dense_low_snr_grid(self, tmp_path, capsys, monkeypatch):
        # 40 points 2.5e-10 apart near rho = 1e-6: the Eb/N0 axis of the
        # capacity curve stays strictly ascending only if log2(1 + rho)
        # does not cancel.
        monkeypatch.setenv("CBPSK_OUTPUT_DIR", str(tmp_path))
        code, _, err = run_cli(capsys, "cocktail", "--ratio", "3.5", "--grid", "1e-6:1.01e-6:lin:40")
        assert code == EXIT_OK, err
        assert_each_curve_ascends(csv_xs(tmp_path / "cocktail_rates.csv"))

    def test_dense_grid_below_1e_6_keeps_bpsk_ascending(self, tmp_path, capsys, monkeypatch):
        # 40 points 7.7e-10 apart near rho = 3e-7 move the bpsk Eb/N0 by
        # about 2e-9 dB a step, so the rate must be accurate far beyond that:
        # an H(Y) - H(N) rate, 1e-10 relative off here, turns the axis back.
        monkeypatch.setenv("CBPSK_OUTPUT_DIR", str(tmp_path))
        code, _, err = run_cli(capsys, "cocktail", "--ratio", "3.5", "--grid", "3e-7:3.3e-7:lin:40")
        assert code == EXIT_OK, err
        rows = (tmp_path / "cocktail_rates.csv").read_text().splitlines()[1:]
        xs = [float(row.split(",")[1]) for row in rows if row.startswith("bpsk,")]
        assert len(xs) == 40 and all(b > a for a, b in zip(xs, xs[1:]))

    def test_dense_grid_below_1e_6_keeps_every_curve_ascending(self, tmp_path, capsys, monkeypatch):
        # The same grid: the capacity and cocktail curves ascend too, in the
        # CSV's 12 digits.
        monkeypatch.setenv("CBPSK_OUTPUT_DIR", str(tmp_path))
        code, _, err = run_cli(capsys, "cocktail", "--ratio", "3.5", "--grid", "3e-7:3.3e-7:lin:40")
        assert code == EXIT_OK, err
        assert_each_curve_ascends(csv_xs(tmp_path / "cocktail_rates.csv"))

    def test_dense_grid_below_1e_10_keeps_bpsk_ascending(self, tmp_path, capsys, monkeypatch):
        # Here the kernel would lose about 1e-16/sqrt(rho) relative and turn
        # the bpsk Eb/N0 axis back; bpsk is centrally symmetric, so its rate
        # below s = 1e-8 is the low-SNR series.
        monkeypatch.setenv("CBPSK_OUTPUT_DIR", str(tmp_path))
        # Steps of about 1e-12 dB repeat in the CSV's 12 digits, so the
        # check reads the curves the command builds, at full precision.
        built = []

        def recording(spec):
            built.extend(cocktail_rate_curves(spec))
            return built

        monkeypatch.setattr(cli, "cocktail_rate_curves", recording)
        code, _, err = run_cli(capsys, "cocktail", "--ratio", "3.5", "--grid", "1e-11:1e-10:log:40")
        assert code == EXIT_OK, err
        assert_each_curve_ascends({c.label: c.xs for c in built})

    def test_plot_manifest_lists_csvs_then_svgs(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CBPSK_OUTPUT_DIR", str(tmp_path))
        code, _, _ = run_cli(capsys, "cocktail", "--ratio", "3.5", "--grid", "0.01:10:log:4", "--plot")
        assert code == EXIT_OK
        manifest = json.loads((tmp_path / "cocktail_rates.manifest.json").read_text())
        assert [os.path.basename(p) for p in manifest["outputs"]] == [
            "cocktail_rates.csv", "cocktail_gain.csv", "cocktail_rates.svg", "cocktail_gain.svg"
        ]

    def test_plot_adds_svgs(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CBPSK_OUTPUT_DIR", str(tmp_path))
        code, _, _ = run_cli(
            capsys, "cocktail", "--ratio", "2.5", "--grid", "0.01:10:log:5", "--plot", "--prefix", "p"
        )
        assert code == EXIT_OK
        assert (tmp_path / "p_rates.svg").exists()
        assert (tmp_path / "p_gain.svg").exists()
        svg = (tmp_path / "p_rates.svg").read_text()
        assert 'version="1.1"' in svg

    def test_one_point_grid_plots(self, tmp_path, capsys, monkeypatch):
        # On the SNR axis every curve's one point sits at x = 1, and the one
        # gain point spans no y range either; the chart widens both to draw.
        monkeypatch.setenv("CBPSK_OUTPUT_DIR", str(tmp_path))
        code, _, err = run_cli(capsys, "cocktail", "--ratio", "3.5", "--grid", "1:2:lin:1", "--axis", "linear",
                               "--plot")
        assert code == EXIT_OK, err
        for name, curves in (("cocktail_rates.svg", 3), ("cocktail_gain.svg", 1)):
            root = ET.fromstring((tmp_path / name).read_bytes())
            assert len([e for e in root.iter() if e.tag.endswith("polyline")]) == curves

    def test_report_limit_mentions_gain(self, capsys):
        code, out, _ = run_cli(capsys, "limit", "--ratio", "3.5")
        assert code == EXIT_OK
        assert out == (
            "ratio 3.5: limiting Eb/N0 -3.41 dB (closed form -3.41 dB), gain 1.82 dB "
            "over the -1.59 dB capacity limit\n"
        )

    @pytest.mark.parametrize("axis", sorted(GOLDEN_COCKTAIL))
    def test_golden_file_bytes(self, axis, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CBPSK_OUTPUT_DIR", str(tmp_path))
        code, _, _ = run_cli(capsys, *GOLDEN_COCKTAIL_ARGV, "--axis", axis)
        assert code == EXIT_OK
        for name, text in GOLDEN_COCKTAIL[axis].items():
            assert (tmp_path / name).read_bytes() == text.encode()

    def test_figure_bytes_keep_their_digests(self, tmp_path, capsys, monkeypatch):
        # The paper's figures: 4 ratios on 60 log points, both CSVs and
        # SVGs, pinned by the sha256 of their bytes.
        monkeypatch.setenv("CBPSK_OUTPUT_DIR", str(tmp_path))
        ratios = [f for r in ("1.5", "2.5", "3.5", "5") for f in ("--ratio", r)]
        code, _, err = run_cli(capsys, "cocktail", *ratios, "--grid", "0.001:100:log:60", "--axis", "ebn0", "--plot")
        assert code == EXIT_OK, err
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in FIGURE_DIGESTS}
        assert digests == FIGURE_DIGESTS

    @pytest.mark.parametrize("scheme", sorted(MI_DIGESTS))
    def test_scheme_curve_bytes_keep_their_digests(self, scheme, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CBPSK_OUTPUT_DIR", str(tmp_path))
        code, _, err = run_cli(capsys, "mi", "--scheme", scheme, "--grid", "0.001:100:log:60", "--axis", "ebn0")
        assert code == EXIT_OK, err
        assert hashlib.sha256((tmp_path / f"mi_{scheme}.csv").read_bytes()).hexdigest() == MI_DIGESTS[scheme]

    def test_log_axis_figure_bytes_keep_their_digests(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CBPSK_OUTPUT_DIR", str(tmp_path))
        ratios = [f for r in ("1.5", "2.5", "3.5", "5") for f in ("--ratio", r)]
        code, _, err = run_cli(capsys, "cocktail", *ratios, "--grid", "0.001:100:log:60", "--axis", "linear", "--plot")
        assert code == EXIT_OK, err
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in LOG_FIGURE_DIGESTS}
        assert digests == LOG_FIGURE_DIGESTS

    def test_wide_log_axis_draws_at_most_ten_x_labels(self, tmp_path, capsys, monkeypatch):
        # 601 decades: one label per decade would put 601 on the 640-px
        # axis. Every 100th decade is labelled instead.
        monkeypatch.setenv("CBPSK_OUTPUT_DIR", str(tmp_path))
        code, _, err = run_cli(
            capsys, "cocktail", "--ratio", "3.5", "--grid", "1e-300:1e300:log:5", "--axis", "linear", "--plot"
        )
        assert code == EXIT_OK, err
        for name in ("cocktail_rates.svg", "cocktail_gain.svg"):
            root = ET.fromstring((tmp_path / name).read_bytes())
            # x-tick labels are the 11-px texts centred on their tick.
            labels = [
                e.text for e in root.iter()
                if e.tag.endswith("text") and e.get("font-size") == "11" and e.get("text-anchor") == "middle"
            ]
            assert len(labels) <= 10
            assert labels == ["1e-300", "1e-200", "1e-100", "1", "1e+100", "1e+200", "1e+300"]

    def test_curve_labels_in_csv(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CBPSK_OUTPUT_DIR", str(tmp_path))
        run_cli(capsys, "cocktail", "--ratio", "1.5", "--ratio", "3.5", "--grid", "0.1:1:log:3")
        text = (tmp_path / "cocktail_rates.csv").read_text()
        assert "cocktail r=1.5," in text
        assert "cocktail r=3.5," in text
        assert text.startswith("curve,x,y\n")


CHECK_ARGV = ("check", "--grid", "0.01:10:log:4")
LIMIT_ARGV = ("limit", "--ratio", "3.5")

# (argv, a flag of another command that check or limit does not take), one
# row per flag; the flag may equal its default elsewhere and is still
# rejected.
IGNORED_MODE_FLAGS = [
    pytest.param((*CHECK_ARGV, "--scheme", "qpsk"), "--scheme", id="check-scheme"),
    pytest.param((*CHECK_ARGV, "--axis", "linear"), "--axis", id="check-axis"),
    pytest.param((*CHECK_ARGV, "--output", "x.csv"), "--output", id="check-output"),
    pytest.param((*LIMIT_ARGV, "--grid", "0.01:10:log:4"), "--grid", id="report-limit-grid"),
    pytest.param((*LIMIT_ARGV, "--axis", "ebn0"), "--axis", id="report-limit-axis"),
    pytest.param((*LIMIT_ARGV, "--prefix", "zz"), "--prefix", id="report-limit-prefix"),
    pytest.param((*LIMIT_ARGV, "--plot"), "--plot", id="report-limit-plot"),
]

# The mode switches that check and limit replace, and the worker count that
# simulate takes from the cores the process may use.
REMOVED_FLAGS = [
    pytest.param(("mi", "--scheme", "qpsk", "--check"), "--check", id="mi-check"),
    pytest.param(("cocktail", "--ratio", "3.5", "--report-limit"), "--report-limit", id="cocktail-report-limit"),
    pytest.param(("simulate", "--alpha", "2", "--beta", "1", "--noise-var", "1", "--workers", "2"), "--workers",
                 id="simulate-workers"),
]


class TestModeFlags:
    @pytest.mark.parametrize("argv,flag", IGNORED_MODE_FLAGS + REMOVED_FLAGS)
    def test_ignored_flag_is_usage_error(self, argv, flag, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CBPSK_OUTPUT_DIR", str(tmp_path))
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert flag in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


class TestSimulate:
    def test_noise_free_run_has_zero_errors(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--alpha", "3.5", "--beta", "1", "--noise-var", "1e-8", "--n", "10000"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["report"]["errors_x1"] == 0
        assert doc["report"]["errors_x2"] == 0
        assert doc["config"]["seed"] == doc["report"]["seed"]

    def test_same_seed_identical_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run_cli(
                capsys, "simulate", "--alpha", "2", "--beta", "1", "--noise-var", "1",
                "--n", "50000", "--seed", "7", "--output", str(path),
            )
            assert code == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_records_command_seed_and_output(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CBPSK_OUTPUT_DIR", str(tmp_path))
        code, _, _ = run_cli(
            capsys, "simulate", "--alpha", "2", "--beta", "1", "--noise-var", "1",
            "--n", "20000", "--seed", "7", "--output", "s.json",
        )
        assert code == EXIT_OK
        manifest = json.loads((tmp_path / "s.manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["seeds"] == [7]
        assert manifest["outputs"] == [str(tmp_path / "s.json")]

    def test_both_modes_accepted(self, capsys):
        for mode in ("dd", "genie"):
            code, out, _ = run_cli(
                capsys, "simulate", "--alpha", "2", "--beta", "1", "--noise-var", "1",
                "--n", "10000", "--mode", mode,
            )
            assert code == EXIT_OK

    def test_eta_flag_removed_and_report_keeps_half(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--alpha", "2", "--beta", "1", "--noise-var", "1", "--eta", "0.2"])
        assert exc.value.code == 2
        code, out, _ = run_cli(
            capsys, "simulate", "--alpha", "2", "--beta", "1", "--noise-var", "1", "--n", "10000"
        )
        assert code == EXIT_OK
        assert json.loads(out)["config"]["eta"] == 0.5

    @pytest.mark.parametrize("flag,value", [("--n", "0"), ("--n", "2.5"), ("--seed", "-1"),
                                            ("--seed", "18446744073709551616")])
    def test_out_of_range_counts_are_usage_errors(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--alpha", "2", "--beta", "1", "--noise-var", "1", flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_invalid_amplitudes_are_numeric_failure(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--alpha", "1", "--beta", "2", "--noise-var", "1"
        )
        assert code == EXIT_NUMERIC
        assert "alpha > beta > 0" in err


SIMULATE_ARGV = ("simulate", "--alpha", "2", "--beta", "1", "--noise-var", "1")
COCKTAIL_ARGV = ("cocktail", "--ratio", "2")

# Runs whose output goes to stdout; an empty --output means stdout too.
STDOUT_RUNS = [
    pytest.param(("capacity", "--snr", "1"), id="capacity"),
    pytest.param(("capacity", "--snr", "1", "--output", ""), id="capacity-empty-output"),
    pytest.param((*SIMULATE_ARGV, "--n", "20000"), id="simulate"),
    pytest.param((*SIMULATE_ARGV, "--n", "20000", "--output", ""), id="simulate-empty-output"),
    pytest.param(CHECK_ARGV, id="check"),
    pytest.param(("limit", "--ratio", "3.5"), id="limit"),
]


@pytest.mark.parametrize("argv", STDOUT_RUNS)
def test_stdout_run_writes_no_file_and_no_manifest(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CBPSK_OUTPUT_DIR", str(tmp_path))
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_OK, err
    assert out
    assert list(tmp_path.iterdir()) == []


# (argv, config entries, text stderr must hold): each entry is rejected as
# its flag would be on the command line, or as a key no flag takes.
BAD_CONFIG_VALUES = [
    pytest.param(SIMULATE_ARGV, {"n": 0}, "--n", id="n=0"),
    pytest.param(SIMULATE_ARGV, {"n": 2.5}, "--n", id="n=2.5"),
    pytest.param(SIMULATE_ARGV, {"seed": -1}, "--seed", id="seed=-1"),
    pytest.param(SIMULATE_ARGV, {"mode": "bogus"}, "--mode", id="mode=bogus"),
    pytest.param(COCKTAIL_ARGV, {"axis": "x"}, "--axis", id="axis=x"),
    pytest.param(COCKTAIL_ARGV, {"plot": "no"}, "--plot", id="plot=no"),
    pytest.param(COCKTAIL_ARGV, {"grid": [1, 2]}, "--grid", id="grid=[1,2]"),
    pytest.param(("capacity",), {"grid": "-1:1:lin:3"}, "--grid", id="grid=-1:1:lin:3"),
    pytest.param(("mi",), {"scheme": "16qam"}, "--scheme", id="scheme=16qam"),
    pytest.param(SIMULATE_ARGV[:5], {"nois": 1}, "'nois'", id="nois=1"),
    pytest.param(SIMULATE_ARGV, {"n": [5, 6]}, "'n'", id="n=[5,6]"),
    # the same group conflict as `capacity --grid ... --snr 1`
    pytest.param(("capacity", "--snr", "1"), {"grid": "1:2:lin:2"}, "--grid", id="grid-with-snr"),
]

# (flags, the same run as config entries), for each command; outputs are
# relative, so both runs write the same names into their own directory.
SAME_RUN_AS_FLAGS_AND_FILE = {
    "capacity": (
        ["capacity", "--snr", "1", "--snr", "2.5", "--output", "cap.csv"],
        {"snr": [1, 2.5], "output": "cap.csv"},
    ),
    "mi": (
        ["mi", "--scheme", "qpsk", "--grid", "0.01:10:log:4", "--axis", "ebn0", "--output", "mi.csv"],
        {"scheme": "qpsk", "grid": "0.01:10:log:4", "axis": "ebn0", "output": "mi.csv"},
    ),
    "cocktail": (
        ["cocktail", "--ratio", "1.5", "--ratio", "3.5", "--grid", "0.01:10:log:4",
         "--axis", "linear", "--prefix", "c", "--plot"],
        {"ratio": [1.5, 3.5], "grid": "0.01:10:log:4", "axis": "linear", "prefix": "c", "plot": True},
    ),
    "simulate": (
        ["simulate", "--alpha", "2", "--beta", "1", "--noise-var", "0.5", "--n", "3000",
         "--seed", "9", "--mode", "genie", "--output", "sim.json"],
        {"alpha": 2, "beta": 1, "noise_var": 0.5, "n": 3000, "seed": 9, "mode": "genie", "output": "sim.json"},
    ),
    "check": (["check", "--grid", "0.01:10:log:4"], {"grid": "0.01:10:log:4"}),
    "limit": (["limit", "--ratio", "1.5", "--ratio", "3.5"], {"ratio": [1.5, 3.5]}),
}


class TestConfigFile:
    @pytest.mark.parametrize("argv,entries,named", BAD_CONFIG_VALUES)
    def test_bad_value_is_usage_error_naming_its_flag(self, argv, entries, named, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CBPSK_OUTPUT_DIR", str(tmp_path))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entries))
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", str(cfg)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", sorted(SAME_RUN_AS_FLAGS_AND_FILE))
    def test_every_flag_from_file_matches_flags(self, command, tmp_path, capsys, monkeypatch):
        flags, entries = SAME_RUN_AS_FLAGS_AND_FILE[command]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entries))
        written, printed = {}, {}
        for name, argv in (("flags", flags), ("file", [command, "--config", str(cfg)])):
            out_dir = tmp_path / name
            out_dir.mkdir()
            monkeypatch.setenv("CBPSK_OUTPUT_DIR", str(out_dir))
            code, printed[name], err = run_cli(capsys, *argv)
            assert code == EXIT_OK, err
            written[name] = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        assert printed["file"] == printed["flags"]
        assert sorted(written["file"]) == sorted(written["flags"])
        for name, data in written["flags"].items():
            if name.endswith(".manifest.json"):
                assert json.loads(written["file"][name])["config"] == json.loads(data)["config"]
            else:
                assert written["file"][name] == data, name

    @pytest.mark.parametrize("content", ["[1, 2]", "{bad", None], ids=["list", "malformed", "missing"])
    def test_unreadable_file_is_usage_error_naming_it(self, content, tmp_path, capsys):
        # A file that holds no JSON object, one that is no JSON, and none.
        cfg = tmp_path / "cfg.json"
        if content is not None:
            cfg.write_text(content)
        with pytest.raises(SystemExit) as exc:
            main(["capacity", "--snr", "1", "--config", str(cfg)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert str(cfg) in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_config_key_is_usage_error_naming_it(self, tmp_path, capsys, monkeypatch):
        # The --config in argv would win over the file's own, which would
        # then be ignored without a word.
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        monkeypatch.setenv("CBPSK_OUTPUT_DIR", str(out_dir))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"config": "nowhere.json", "snr": 1}))
        with pytest.raises(SystemExit) as exc:
            main(["capacity", "--config", str(cfg)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "'config'" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not any(out_dir.iterdir())

    def test_explicit_repeatable_flag_replaces_file_list(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CBPSK_OUTPUT_DIR", str(tmp_path))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ratio": [2.0], "grid": "0.1:1:log:3"}))
        code, _, _ = run_cli(capsys, "cocktail", "--config", str(cfg), "--ratio", "3")
        assert code == EXIT_OK
        labels = {line.split(",")[0] for line in (tmp_path / "cocktail_rates.csv").read_text().splitlines()}
        assert {l for l in labels if l.startswith("cocktail")} == {"cocktail r=3"}

    @pytest.mark.parametrize("plot", [True, False])
    def test_plot_switch_from_file(self, plot, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CBPSK_OUTPUT_DIR", str(tmp_path))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ratio": 2.5, "grid": "0.1:1:log:3", "plot": plot}))
        code, _, _ = run_cli(capsys, "cocktail", "--config", str(cfg))
        assert code == EXIT_OK
        assert (tmp_path / "cocktail_rates.svg").exists() is plot
        assert (tmp_path / "cocktail_gain.svg").exists() is plot

    def test_config_supplies_defaults_and_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 20000, "seed": 5, "noise_var": 1e-8}))
        code, out, _ = run_cli(
            capsys, "simulate", "--alpha", "2", "--beta", "1", "--noise-var", "1e-8",
            "--config", str(cfg), "--n", "12345",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["config"]["n_symbols"] == 12345  # flag wins
        assert doc["config"]["seed"] == 5  # config wins over default

    def test_config_grid_string(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": "1:2:lin:2"}))
        out_file = tmp_path / "o.csv"
        code, _, _ = run_cli(
            capsys, "mi", "--scheme", "bpsk", "--config", str(cfg), "--output", str(out_file)
        )
        assert code == EXIT_OK
        rows = out_file.read_text().strip().splitlines()
        assert len(rows) == 3  # header + 2 grid points

    # command, parser and func name entries of the parsed namespace, not
    # flags, so a file cannot set them either.
    @pytest.mark.parametrize("key", ["bogus", "command", "parser", "func"])
    def test_unknown_config_key_is_usage_error(self, key, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 1}))
        with pytest.raises(SystemExit) as exc:
            main(["mi", "--scheme", "bpsk", "--config", str(cfg)])
        assert exc.value.code == 2
        # The key is named, under the command's usage line, not as a flag
        # the user never typed.
        err = capsys.readouterr().err
        assert err.startswith("usage: cbpsk mi ") and f"config key {key!r} is not a flag of 'mi'" in err
        assert f"--{key}" not in err

    @pytest.mark.parametrize("ratio", [[1.0], ["abc"], 0.5])
    def test_config_ratio_validated_like_flag(self, ratio, tmp_path, capsys):
        # same exit code as `--ratio 1.0` on the command line
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ratio": ratio}))
        with pytest.raises(SystemExit) as exc:
            main(["cocktail", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "ratio" in capsys.readouterr().err

    def test_config_ratio_list(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CBPSK_OUTPUT_DIR", str(tmp_path))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ratio": [2.0], "grid": "0.1:1:log:3"}))
        code, _, _ = run_cli(capsys, "cocktail", "--config", str(cfg))
        assert code == EXIT_OK
        text = (tmp_path / "cocktail_rates.csv").read_text()
        assert "cocktail r=2," in text
        assert "r=3.5" not in text


class TestVersionFlag:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out


def run_package(*argv, cwd):
    """Run ``python -m cbpsk`` (the package entry point) in a subprocess;
    the autouse fixture in conftest puts this checkout's ``src`` first on
    its PYTHONPATH."""
    return subprocess.run(
        [sys.executable, "-m", "cbpsk", *argv], cwd=cwd, capture_output=True, text=True, timeout=120
    )


class TestPackageEntryPoint:
    def test_version(self, tmp_path):
        proc = run_package("--version", cwd=tmp_path)
        assert proc.returncode == 0
        assert __version__ in proc.stdout

    def test_capacity_from_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"snr": [1, 3]}))
        proc = run_package("capacity", "--config", str(cfg), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "capacity,1,1\n" in proc.stdout
        assert "capacity,3,2\n" in proc.stdout

    def test_console_script_is_main(self):
        # pyproject.toml read by regex: Python 3.10 has no tomllib.
        text = (ROOT / "pyproject.toml").read_text()
        section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
        scripts = re.findall(r'^(\S+)\s*=\s*"(\S+)"', section, re.M)
        assert scripts == [("cbpsk", "cbpsk.cli:main")]
        module, name = scripts[0][1].split(":")
        assert getattr(importlib.import_module(module), name) is main


def readme_commands():
    """The ``cbpsk`` lines of the README's shell block under "Command line",
    each as the argv that follows ``cbpsk``."""
    section = (ROOT / "README.md").read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```sh\n(.*?)```", section, re.S)
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("cbpsk ")]


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_runs(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CBPSK_OUTPUT_DIR", raising=False)
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_OK, err
