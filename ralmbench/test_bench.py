"""Smoke test of the benchmark: one short run per workload, untraced and traced.

    python -m pytest -q ralmbench/test_bench.py      # about three minutes
"""
import functools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
METRIC_LINE = re.compile(r"metric (\S+) (\S+) (\S+) n=(\d+)")
NAME = re.compile(r"[A-Za-z0-9_.-]+")

# rmc-200 seed 1 through ralm.cli.main, single BLAS thread
PINNED_RMC_SEED1 = {
    "solver.outer_iters": 15,
    "solver.inner_iters": 665,
    "manifolds.retract.calls": 1587,
    "manifolds.retract.raised": 0,
    "problems.aug_lagrangian_value.calls": 1587,
    "problems.aug_lagrangian.calls": 1411,
    "convex.moreau_env.calls": 2998,
    "manifolds.project_tangent.calls": 1443,
}


def run_bench(workload, trace, cwd=ROOT, bench=BENCH):
    argv = [sys.executable, str(bench / "run.py"), "--workload", workload, "--seed", "0",
            "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def checked_run(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["attempted"] >= 1
    spec_key = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in SPEC[spec_key]]
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            match = METRIC_LINE.fullmatch(line)
            assert match, line
            name, value, unit, samples = match.groups()
            assert NAME.fullmatch(name) and int(samples) >= 1, line
            printed[name] = (float(value), unit)
    for name, metric in result["metrics"].items():
        assert printed[name] == (metric["value"], metric["unit"])
    report = json.loads((BENCH / "out" / f"{workload}-seed0-trace{trace}" / "report.json")
                        .read_text(encoding="utf-8"))
    return result, printed, report


@functools.cache
def traced_run(workload):
    return checked_run(workload, 1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_end_to_end_metrics(workload):
    result, printed, _ = checked_run(workload, 0)
    fail_rate, unit = printed["fail_rate"]
    assert unit == "ratio"
    assert fail_rate == result["failed"] / result["attempted"]
    assert result["metrics"]["success_rate"]["value"] == pytest.approx(1.0 - fail_rate)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_across_processes(workload):
    _, _, first = traced_run(workload)
    _, _, second = checked_run(workload, 1)
    counts = {m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"}
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    assert [c["counts"] for c in first["commands"]] == [c["counts"] for c in second["commands"]]


def test_rmc_seed1_counts_are_pinned():
    _, _, report = traced_run("rmc-200")
    seed1 = next(c for c in report["commands"] if c["label"] == "rmc-200/seed1")
    assert {k: seed1["counts"].get(k, 0) for k in PINNED_RMC_SEED1} == PINNED_RMC_SEED1


def test_fails_without_the_program():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("small-analyze", 0, cwd=bare, bench=bare / BENCH.name)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
