"""Benchmark of the heckespecht command line, one workload per run.

    python3 bench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Run from the repository root.  The run takes the workload's query pool,
orders it by the seed (workloads.py), and issues whole rounds of it through
``heckespecht.cli.main(argv)`` with ``--format json`` from one client in a
fresh Python process (worker.py), with caches cold at the start.  The
number of rounds is fixed by --seconds, so the work does not depend on the
machine's speed.  The answers are then checked independently (checks.py).
Timed figures are latencies scaled to a reference machine speed
(calibrate.py).

With ``--trace 0`` it reports the end-to-end metrics:

* ``setup_s``: median time, over SETUP_RUNS fresh interpreters, to import
  heckespecht and build every field of the workload with parse_field;
* ``queries_per_s``: queries completed over the sum of their latencies;
* ``query_p50_ms``, ``query_p90_ms``: per-query latency percentiles;
* ``peak_rss_mb``: peak resident memory of the workload process;
* ``success_ratio``: share of attempted queries that exited 0 with a
  correct answer (1 - failed ratio).

With ``--trace 1`` it runs the same queries twice, untraced and traced,
each in a fresh process, and reports the per-layer metrics of the traced
run (tracing.py) and ``trace.overhead_ratio``.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  Human-readable lines come before it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from calibrate import REFERENCE_KERNEL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_RUNS = 15
# A run must end within 180 s; a traced run starts two workload processes.
WORKER_TIMEOUT_S = 80
# Scaled seconds per round of each workload (every query of its pool
# once, workloads.py) on the reference machine at this library version,
# averaged over the rounds of a 20 s run (later rounds find warm caches).
# A run issues round(seconds / ROUND_SECONDS) rounds, at least one: a
# fixed amount of work that takes about --seconds there, so two versions
# of the library are always timed on the same queries.
ROUND_SECONDS = {"verify": 23.0, "homdim": 12.5, "closed-form": 15.0}

END_TO_END_UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}

SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import heckespecht\n"
    "from heckespecht.qfield import parse_field\n"
    "for spec in sys.argv[1:]:\n"
    "    parse_field(spec)\n"
    "took = time.perf_counter() - t0\n"
    "from calibrate import SpeedTracker\n"
    "print(took * SpeedTracker().factor_at(0))\n"
)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("HECKESPECHT_WORKERS", None)
    env["PYTHONPATH"] = os.pathsep.join((str(SRC), str(HERE)))
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(fields) -> float:
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, *fields],
            env=child_env(), capture_output=True, text=True, timeout=10, check=True,
        )
        times.append(float(proc.stdout.strip()))
    return statistics.median(times)


def run_worker(queries, trace_path=None) -> dict:
    """Run the queries in a fresh workload process; returns its summary
    with the per-query records under "records"."""
    job = {
        "queries": [q.argv for q in queries],
        "trace_path": str(trace_path) if trace_path else None,
    }
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(job), env=child_env(), cwd=str(ROOT),
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    summary = json.loads(lines[-1])
    summary["records"] = [json.loads(line) for line in lines[:-1]]
    return summary


def count_failures(queries, records) -> tuple[int, list]:
    """Failed queries: a nonzero exit, a raise, or a wrong answer."""
    from checks import check

    failures = []
    for query, (code, _latency, answer) in zip(queries, records):
        if code != 0:
            reason = f"exit {code}: {answer.strip()}"
        else:
            try:
                reason = check(query, answer)
            except Exception as exc:  # a malformed answer fails its query
                reason = f"check raised {exc!r}"
        if reason:
            failures.append(f"{' '.join(query.argv)}: {reason}")
    return len(failures), failures


def latency_percentile(latencies_ms, pct: int) -> float:
    return statistics.quantiles(latencies_ms, n=100, method="inclusive")[pct - 1]


def query_count(plan, seconds, max_queries=None) -> int:
    if max_queries:
        return max_queries
    return plan.round_length * max(1, round(seconds / ROUND_SECONDS[plan.workload]))


def run_untraced(plan, queries) -> dict:
    setup = measure_setup(plan.fields)
    summary = run_worker(queries)
    records = summary["records"]
    failed, failures = count_failures(queries, records)
    latencies = [t * 1000.0 for t in summary["scaled_s"]]
    done = len(records)
    metrics = {
        "setup_s": setup,
        "queries_per_s": done / (sum(latencies) / 1000.0),
        "query_p50_ms": statistics.median(latencies),
        "query_p90_ms": latency_percentile(latencies, 90) if done > 1 else latencies[0],
        "peak_rss_mb": summary["peak_rss_kb"] / 1024.0,
        "success_ratio": (done - failed) / done,
    }
    return {
        "attempted": done,
        "failed": failed,
        "failures": failures,
        "metrics": {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
        "note": f"raw loop time {summary['wall_s']:.1f} s; calibration kernel "
                f"{statistics.median(summary['kernel_s']) * 1000:.3f} ms "
                f"(reference {REFERENCE_KERNEL_S * 1000:.3f} ms)",
    }


def scaled_total(summary) -> float:
    return sum(summary["scaled_s"])


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".ns"):
        return "ns"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def run_traced(plan, seed, queries) -> dict:
    RESULTS.mkdir(exist_ok=True)
    trace_path = RESULTS / f"trace-{plan.workload}-{seed}.json"
    base = run_worker(queries)
    traced = run_worker(queries, trace_path=trace_path)
    failed = 0
    failures = []
    for summary in (base, traced):
        n, reasons = count_failures(queries, summary["records"])
        failed += n
        failures += reasons
    layers = dict(traced["layers"])
    layers["trace.overhead_ratio"] = scaled_total(traced) / scaled_total(base)
    return {
        "attempted": len(base["records"]) + len(traced["records"]),
        "failed": failed,
        "failures": failures,
        "metrics": {k: (v, layer_unit(k)) for k, v in sorted(layers.items())},
        "note": f"spans written to {trace_path.relative_to(ROOT)}",
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 max_queries=None) -> dict:
    from workloads import Plan

    plan = Plan(workload)
    queries = plan.first_queries(seed, query_count(plan, seconds, max_queries))
    if trace:
        out = run_traced(plan, seed, queries)
    else:
        out = run_untraced(plan, queries)
    out["skipped_unknown"] = plan.skipped_unknown
    return out


def result_line(out: dict) -> str:
    return json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    })


def use_sources() -> bool:
    """Put the library sources of this checkout on sys.path."""
    if not (SRC / "heckespecht" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-queries", type=int, default=None,
                        help="issue this many queries instead of sizing the run by --seconds")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_sources():
        return 2
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                           args.max_queries)
    except (ValueError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for reason in out["failures"][:20]:
        print(f"FAILED {reason}")
    print(f"workload {args.workload} seed {args.seed}: {out['attempted']} queries, "
          f"{out['failed']} failed, {out['skipped_unknown']} pairs skipped as unknown")
    print(out["note"])
    for name, (value, unit) in out["metrics"].items():
        print(f"  {name:44s} {value:16.6g} {unit}")
    print(result_line(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
