"""The benchmark's own tests: tiny runs, corrupted goldens, deterministic traces.

Run from the repository root with ``python -m pytest benchmarks``.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer

sys.path.insert(0, str(run.SRC))

import golden  # noqa: E402
import workloads  # noqa: E402

RUN = Path(run.__file__).resolve()
WORKLOADS = ("select-deep", "compare-sweep", "verify-audit")
HELD_OUT_SEED = 48611


def tiny_run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("seed", [1, HELD_OUT_SEED])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric_without_errors(workload, seed):
    result = tiny_run(workload, seed, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    for metric in declared["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0


def _corrupted_golden() -> dict:
    gold = golden.load()
    gold["selections"][("partition", 8)]["records"][3][1] += 1
    key = next(iter(gold["audit"]))
    gold["audit"][key] = dict(gold["audit"][key], witnesses=gold["audit"][key]["witnesses"] + 1)
    return gold


@pytest.mark.parametrize("workload", ["compare-sweep", "verify-audit"])
def test_corrupted_expected_value_counts_as_failed_operation(workload):
    wl = workloads.WORKLOADS[workload](_corrupted_golden(), tiny=True)
    loop = run.Loop()
    loop.run_round(wl.round(0, random.Random(0)))
    assert loop.failed >= 1
    assert loop.failed < loop.attempted
    assert any("records" in p or "witnesses" in p for p in loop.problems)


def test_golden_check_names_the_mismatched_observable():
    gold = golden.load()
    expected = gold["selections"][("partition", 8)]
    scenario = workloads.selector.ObjectScenario("partition", 8)
    outcome = workloads.selector.run_selection(
        scenario, workloads.bounds.catalog("partition"))
    assert workloads.check_golden_selection(outcome, expected) == []
    wrong = dict(expected, posts=expected["posts"] + 1)
    (problem,) = workloads.check_golden_selection(outcome, wrong)
    assert problem.startswith("posts:")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_two_traced_runs_give_identical_counts(workload):
    first = tiny_run(workload, 5, 1)
    second = tiny_run(workload, 5, 1)
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == list(tracer.LAYER_METRICS)
    for name in tracer.DETERMINISTIC:
        assert first["metrics"][name] == second["metrics"][name], name
    assert "trace.overhead_s" in first["metrics"]
    spans = run.trace_path(workload, 5).read_text().splitlines()
    assert json.loads(spans[0])["name"].startswith("op.")


def test_run_without_the_library_fails_without_a_result(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, no result."""
    root = RUN.parent.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(RUN.parent, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "compare-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
