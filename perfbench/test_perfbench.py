"""Tests of the benchmark itself, on its smoke mode (every workload at a tiny
size, same checks and output schema).

Run from the repository root:  python3 -m pytest perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "spec.json").read_text())
WORKLOADS = list(SPEC["workloads"])


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def smoke(trace: int, seed: int) -> dict:
    """Per-workload results of one smoke run of all workloads."""
    proc = run_bench("--workload", "all", "--smoke", "--seconds", "0.1", "--seed", str(seed), "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0, proc.stdout
    results = {}
    for line in lines:
        if line.startswith("result "):
            name, _, doc = line[len("result "):].partition(": ")
            results[name] = json.loads(doc)
    assert list(results) == WORKLOADS
    return results


@pytest.fixture(scope="module")
def traced_twice():
    return smoke(1, 1), smoke(1, 1)


def test_benchmark_json_matches_spec():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == WORKLOADS
    for section in ("end_to_end", "per_layer"):
        listed = {m["name"]: (m["unit"], m["better"]) for m in bench[section]}
        assert listed == {k: (v["unit"], v["better"]) for k, v in SPEC[section].items()}
    assert set(SPEC["exact_counts"]) <= set(SPEC["per_layer"])


def test_untraced_smoke_reports_every_end_to_end_metric():
    for name, result in smoke(0, SPEC["seeds"]["held_out"]).items():
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, name
        assert set(result["metrics"]) == set(SPEC["end_to_end"]), name
        for key, metric in result["metrics"].items():
            assert metric["value"] > 0, (name, key)
            assert metric["unit"] == SPEC["end_to_end"][key]["unit"]


def test_traced_smoke_reports_per_layer_metrics_and_counts_repeat(traced_twice):
    first, second = traced_twice
    for name in WORKLOADS:
        assert set(first[name]["metrics"]) == set(SPEC["per_layer"]), name
        for key in SPEC["exact_counts"]:
            assert first[name]["metrics"][key] == second[name]["metrics"][key], (name, key)
    cocktail = first["cocktail_sweep"]["metrics"]
    assert cocktail["sweep.unique_kernel_frac"]["value"] == 0.5
    assert cocktail["cocktail.kernel_calls_per_adr"]["value"] == 3
    assert first["montecarlo"]["metrics"]["linksim.symbols"]["value"] > 0
    assert first["modcurves"]["metrics"]["linksim.symbols"]["value"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "modcurves", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
