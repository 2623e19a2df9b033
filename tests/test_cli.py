"""Tests for the command-line front end.

Most cases drive main() in-process; byte-identical output contracts also run
through a real subprocess in the acceptance suite.
"""

import json
import math
import os

import pytest

from cbpsk import __version__
from cbpsk.cli import EXIT_NUMERIC, EXIT_OK, grid_arg, main

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


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGridFlag:
    def test_lin(self):
        assert grid_arg("1:3:lin:3") == (1.0, 2.0, 3.0)

    def test_log(self):
        g = grid_arg("0.001:100:log:10")
        assert len(g) == 10
        assert g[0] == pytest.approx(0.001, rel=1e-12)
        assert g[-1] == pytest.approx(100.0, rel=1e-12)
        assert all(b > a for a, b in zip(g, g[1:]))

    @pytest.mark.parametrize("bad", ["1:3:lin", "1:3:geom:3", "a:3:lin:3", "3:1:lin:3", "1:3:lin:0"])
    def test_malformed(self, bad):
        with pytest.raises(Exception):
            grid_arg(bad)


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

    def test_manifest_alongside_output(self, tmp_path, capsys):
        out_file = tmp_path / "cap.csv"
        run_cli(capsys, "capacity", "--snr", "2", "--output", str(out_file))
        manifest = json.loads((tmp_path / "cap.manifest.json").read_text())
        assert manifest["command"] == "capacity"
        assert manifest["version"] == __version__
        assert manifest["outputs"] == [str(out_file)]
        assert manifest["config"]["snr"] == [2.0]
        assert manifest["seeds"] == []


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
        code, out, _ = run_cli(capsys, "mi", "--scheme", "qpsk", "--grid", "0.01:10:log:4", "--check")
        assert code == EXIT_OK
        assert "passed" in out

    def test_default_output_name(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CBPSK_OUTPUT_DIR", str(tmp_path))
        code, _, _ = run_cli(capsys, "mi", "--scheme", "4ask", "--grid", "1:2:lin:2")
        assert code == EXIT_OK
        assert (tmp_path / "mi_4ask.csv").exists()
        assert (tmp_path / "mi_4ask.manifest.json").exists()


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

    def test_report_limit_mentions_gain(self, capsys):
        code, out, _ = run_cli(capsys, "cocktail", "--ratio", "3.5", "--report-limit")
        assert code == EXIT_OK
        assert "-3.41" in out
        assert "1.82" in out

    @pytest.mark.parametrize("axis", sorted(GOLDEN_COCKTAIL))
    def test_golden_file_bytes(self, axis, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CBPSK_OUTPUT_DIR", str(tmp_path))
        code, _, _ = run_cli(capsys, *GOLDEN_COCKTAIL_ARGV, "--axis", axis)
        assert code == EXIT_OK
        for name, text in GOLDEN_COCKTAIL[axis].items():
            assert (tmp_path / name).read_bytes() == text.encode()

    def test_curve_labels_in_csv(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CBPSK_OUTPUT_DIR", str(tmp_path))
        run_cli(capsys, "cocktail", "--ratio", "1.5", "--ratio", "3.5", "--grid", "0.1:1:log:3")
        text = (tmp_path / "cocktail_rates.csv").read_text()
        assert "cocktail r=1.5," in text
        assert "cocktail r=3.5," in text
        assert text.startswith("curve,x,y\n")


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

    @pytest.mark.parametrize("flag,value", [("--workers", "-3"), ("--workers", "0"), ("--n", "0"), ("--n", "2.5")])
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


class TestConfigFile:
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

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(SystemExit) as exc:
            main(["mi", "--scheme", "bpsk", "--config", str(cfg)])
        assert exc.value.code == 2

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
