"""Smoke-size checks of the pipeline benchmark (``perfbench/run.py``)."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

pytest.importorskip("scipy")  # every workload solves LPs through scipy's HiGHS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import run as bench  # noqa: E402
from closed_loop import load_manifest  # noqa: E402

SECONDS = 0.2


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_declared_workloads_match_the_manifest():
    declared = _declared()
    manifest = load_manifest()
    assert [w["name"] for w in declared["workloads"]] == list(bench.WORKLOADS)
    assert list(manifest["workloads"]) == list(bench.WORKLOADS)
    for entry in declared["workloads"]:
        assert entry["why"] == manifest["workloads"][entry["name"]]["why"]
    assert list(manifest["end_to_end"]) == list(bench.END_TO_END_UNITS)
    assert [row["metric"] for row in manifest["layer_metrics"]] == list(bench.LAYER_UNITS)
    assert all(row["unit"] == bench.LAYER_UNITS[row["metric"]] for row in manifest["layer_metrics"])
    assert manifest["held_out_seed"] not in (0, 1)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_declared_metric_is_reported_with_its_unit(workload, trace):
    outcome = bench.run(workload, seed=3, seconds=SECONDS, trace=trace, smoke=True)
    result = outcome["result"]
    declared = _declared()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert result["failed"] == 0 and result["correct"], outcome["report"]["errors"]
    assert outcome["report"]["failed_frac"] == 0
    assert result["attempted"] >= load_manifest()["workloads"][workload]["smoke"]["min_demands"]
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_seeded_runs_share_a_digest(workload):
    first = bench.run(workload, seed=5, seconds=SECONDS, trace=False, smoke=True)["report"]
    again = bench.run(workload, seed=5, seconds=SECONDS, trace=False, smoke=True)["report"]
    other = bench.run(workload, seed=6, seconds=SECONDS, trace=False, smoke=True)["report"]
    assert first["digest"] == again["digest"]
    assert first["ratio_mean"] == again["ratio_mean"]
    assert first["digest"] != other["digest"]


def test_normalized_ratios_are_at_least_one():
    report = bench.run("ratio-torus4", seed=2, seconds=SECONDS, trace=False, smoke=True)["report"]
    assert report["ratio_mean"] >= 1.0 - 1e-7


def test_command_prints_the_result_object_last():
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "adapt-isp", "--seed", "1",
         "--seconds", str(SECONDS), "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "adapt-isp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
