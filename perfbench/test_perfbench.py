"""Self-test of the benchmark: a tiny run of every workload.

Run from the repository root::

    python3 -m pytest perfbench -q

It checks that ``BENCHMARK.json`` and ``metrics.py`` name the same
metrics, that every traced and untraced tiny run reports every metric
with its unit and passes its reference check, that a wrong output is
caught, and that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import metrics  # noqa: E402
import workloads  # noqa: E402


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600,
    )


def test_benchmark_json_matches_metric_table():
    doc = _benchmark_json()
    assert [w["name"] for w in doc["workloads"]] == list(metrics.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == [
        (name, unit) for name, unit, _ in metrics.PER_LAYER]


@pytest.mark.parametrize("workload", metrics.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_reports_every_metric(workload, trace):
    done = _run("--workload", workload, "--seed", "0", "--seconds", "0",
                "--trace", trace, "--size", "tiny")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    doc = _benchmark_json()
    expected = doc["per_layer"] if trace == "1" else doc["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert isinstance(reported["value"], (int, float))
    if trace == "0":
        assert all(result["metrics"][m["name"]]["value"] > 0
                   for m in expected)


def test_table1_check_catches_a_wrong_outcome():
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as f:
        references = json.load(f)
    table1 = workloads.Table1(0, "tiny", references)
    error, row = next(iter(references[metrics.TABLE1]["0"].items()))

    class Outcome:
        detected, failure_stage = row[0], row[1]
        test_length, backtracks, final_backtracks, attempts = row[2:6]
        dropped_by, deadline_hit = "", row[6]

    Outcome.error = error
    assert table1._check(Outcome) == ""
    Outcome.detected = not row[0]
    assert table1._check(Outcome)
    Outcome.detected, Outcome.failure_stage = row[0], "isa-check"
    assert table1._check(Outcome)


def test_refuses_to_run_without_the_program():
    bare = os.path.join(HERE, "out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        done = _run("--workload", metrics.FUZZ, "--seed", "0",
                    "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert not done.stdout.strip()
