"""Smoke-size self-tests of the repository benchmark.

Every run is a fresh subprocess (the benchmark's own hygiene rule: the
process-wide image cache and peak RSS must not leak between runs), at
``--smoke`` size and a fraction of a second of measurement.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    completed = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return completed.returncode, completed.stdout.splitlines()


def result(*args: str) -> dict:
    code, lines = bench("--seconds", "0.3", "--smoke", *args)
    assert code == 0, lines
    return json.loads(lines[-1])


def test_benchmark_json_names_every_workload():
    assert WORKLOADS == ["hook_fire_jit", "hook_fire_interp", "ota_install",
                         "ota_noop", "ota_replay", "fleet_publish"]
    names = [metric["name"] for metric in SPEC["end_to_end"]]
    assert "setup_s" in names
    assert all(metric["bound"] <= 0.25 for metric in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    out = result("--workload", workload, "--seed", "1", "--trace", "0")
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"]
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    expected = {metric["name"]: metric["unit"]
                for metric in SPEC["end_to_end"]}
    assert {name: value["unit"] for name, value in out["metrics"].items()} \
        == expected
    assert all(value["value"] > 0 for value in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_the_layer_table(workload):
    """Also runs the call-count cross-checks, which count as failed
    operations when a wrapper misses its call sites."""
    out = result("--workload", workload, "--seed", "1", "--trace", "1")
    assert out["correct"] and out["failed"] == 0
    expected = {metric["name"]: metric["unit"]
                for metric in SPEC["per_layer"]}
    assert {name: value["unit"] for name, value in out["metrics"].items()} \
        == expected
    metrics = {name: value["value"] for name, value in out["metrics"].items()}
    shares = sum(value for name, value in metrics.items()
                 if name.endswith(".share") and name.count(".") == 1)
    assert shares == pytest.approx(1.0)
    assert metrics["trace_overhead"] > 0


def test_wrong_checksum_is_counted_as_failed():
    out = result("--workload", "hook_fire_jit", "--seed", "1",
                 "--trace", "0", "--expect-fletcher", "0xdeadbeef")
    assert not out["correct"]
    assert 0 < out["failed"] < out["attempted"]


@pytest.mark.parametrize("workload", ["hook_fire_interp", "ota_install",
                                      "ota_replay", "fleet_publish"])
def test_holdout_seed_passes_every_check(workload):
    out = result("--workload", workload, "--seed", "90210", "--trace", "0")
    assert out["correct"] and out["failed"] == 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("--workload", "hook_fire_jit", "--seed", "1",
                        "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
