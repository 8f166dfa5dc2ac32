"""Smoke tests of the benchmark itself.

    python3 -m pytest -q bench

A few queries per workload, checked for correct answers and for every
metric name of BENCHMARK.json; traced counts that repeat exactly for one
seed; and the run.py command line, including its refusal to run without
the library sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SMOKE_QUERIES = 8

if not run.use_sources():
    pytest.exit("library sources not found under src/", returncode=2)

# counts that depend only on the queries issued
EXACT_SUFFIXES = (".calls", ".terms_in", ".unknowns_sum", ".misses", ".hit_ratio", ".dim_sum")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    out = run.run_workload(workload, seed=7, seconds=1, trace=False, max_queries=SMOKE_QUERIES)
    assert out["failures"] == []
    assert out["attempted"] == SMOKE_QUERIES
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        value, unit = out["metrics"][m["name"]]
        assert unit == m["unit"]
        assert value > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = (
        run.run_workload(workload, seed=11, seconds=1, trace=True, max_queries=SMOKE_QUERIES)
        for _ in range(2)
    )
    assert first["failures"] == [] and second["failures"] == []
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert first["metrics"][m["name"]][1] == m["unit"]
    exact = [name for name in first["metrics"] if name.endswith(EXACT_SUFFIXES)]
    assert len(exact) > 30
    assert {k: first["metrics"][k] for k in exact} == {k: second["metrics"][k] for k in exact}
    assert first["metrics"]["cli.main.calls"][0] == SMOKE_QUERIES


def test_seed_orders_the_queries():
    from workloads import Plan

    plan = Plan("homdim")
    one = [q.argv for q in plan.first_queries(1, 40)]
    assert one == [q.argv for q in plan.first_queries(1, 40)]
    assert one != [q.argv for q in plan.first_queries(2, 40)]


def test_round_issues_every_query_once():
    from workloads import Plan, make_query

    plan = Plan("verify")
    issued = [tuple(q.argv) for q in plan.first_queries(5, plan.round_length)]
    pool = [tuple(make_query(kind, spec, params).argv)
            for kind, params, specs in plan.entries for spec in specs]
    assert sorted(issued) == sorted(pool)


def test_command_line_prints_result_last():
    cmd = [sys.executable, "bench/run.py", "--workload", "closed-form", "--seed", "3",
           "--seconds", "1", "--trace", "0", "--max-queries", "4"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] == 4 and result["failed"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "verify", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
