"""Smoke test of the campaign benchmark at tiny length.

Runs every workload for one second untraced, the traced run on one
workload, and checks the result line against BENCHMARK.json.
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("benchmark", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

# BENCHMARK.json's workloads plus the pooled one it leaves out (README.md)
WORKLOADS = ["campaign_clustered", "campaign_nonclustered_jobs2",
             "sweep_num_pairs"]


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _check_result(done, expected):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    return result


def test_spec_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_end_to_end_metrics(workload):
    result = _check_result(_run(workload, 0), SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_per_layer_metrics():
    result = _check_result(_run("campaign_clustered", 1), SPEC["per_layer"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    solves = metrics["allocation.power_loading.calls"]
    # two waveform cases per snapshot, one solve each
    assert solves == 2 * metrics["geometry.sample_placement.calls"]
    assert solves == result["attempted"]
    assert 0 < metrics["allocation.power_loading.share"] < 1


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "benchmark"), tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("campaign_clustered", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
