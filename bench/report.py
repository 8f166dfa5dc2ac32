"""Every metric of every workload, in one command, with the change against
a previous result file.

    python3 bench/report.py --seed 1 --seconds 20 --label base
    python3 bench/report.py --seed 1 --seconds 20 --label after --compare bench/results/BENCH_base.json

For each workload it makes an untraced run (the end-to-end metrics) and a
traced run (the per-layer metrics and trace.overhead_ratio), prints each
metric by name with its unit and query count, and writes
bench/results/BENCH_<label>.json.  Without --compare, the newest other
BENCH_*.json in that directory, if any, is the previous result.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import run


def collect(workloads, seed, seconds) -> dict:
    out = {"seed": seed, "seconds": seconds, "workloads": {}}
    for workload in workloads:
        entry = {}
        for mode, trace in (("end_to_end", False), ("per_layer", True)):
            res = run.run_workload(workload, seed, seconds, trace)
            entry[mode] = {
                "attempted": res["attempted"],
                "failed": res["failed"],
                "failures": res["failures"][:20],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
            }
        out["workloads"][workload] = entry
    return out


def previous_file(explicit, current):
    if explicit:
        return explicit
    candidates = [p for p in run.RESULTS.glob("BENCH_*.json") if p != current]
    return max(candidates, key=lambda p: p.stat().st_mtime) if candidates else None


def change(value, old):
    if old is None:
        return ""
    if old == 0:
        return "" if value == 0 else "   (was 0)"
    return f"{(value - old) / abs(old) * 100:+8.1f}%"


def print_report(result, previous):
    prev = previous["workloads"] if previous else {}
    for workload, entry in result["workloads"].items():
        for mode in ("end_to_end", "per_layer"):
            block = entry[mode]
            print(f"\n{workload} / {mode}: {block['attempted']} queries, {block['failed']} failed")
            for reason in block["failures"]:
                print(f"  FAILED {reason}")
            old_metrics = prev.get(workload, {}).get(mode, {}).get("metrics", {})
            for name, m in block["metrics"].items():
                old = old_metrics.get(name, {}).get("value")
                print(f"  {name:44s} {m['value']:14.6g} {m['unit']:6s} {change(m['value'], old)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--label", default=time.strftime("%Y%m%d-%H%M%S"))
    parser.add_argument("--compare", help="previous BENCH_*.json to compare with")
    args = parser.parse_args(argv)
    if not run.use_sources():
        return 2

    from workloads import WORKLOADS

    result = collect(WORKLOADS, args.seed, args.seconds)
    run.RESULTS.mkdir(exist_ok=True)
    path = run.RESULTS / f"BENCH_{args.label}.json"
    prev_path = previous_file(args.compare, path)
    previous = None
    if prev_path:
        with open(prev_path, encoding="utf-8") as fh:
            previous = json.load(fh)
        print(f"comparing with {prev_path}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print_report(result, previous)
    print(f"\nwrote {path}")
    failed = sum(e[m]["failed"] for e in result["workloads"].values() for m in e)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
