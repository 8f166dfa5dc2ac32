"""The workload process: issues queries through ``heckespecht.cli.main``.

Reads one JSON object from stdin::

    {"queries": [argv, ...], "trace_path": path or null}

and runs the queries in a closed loop from one client: the next query is
issued when the previous one has returned.  Each query's stdout is
captured and its JSON answer parsed; one line per query goes to stdout,
``[exit code, latency s, answer]``, then a final summary line.  Between
queries, about every CALIBRATE_EVERY_S of query time, the calibration
kernel is timed (calibrate.py); the summary carries each query's latency
scaled by the kernel times taken around it.  With ``trace_path`` set the
library is traced (see tracing.py) and the spans are written there.

Run by run.py in a fresh interpreter, with PYTHONPATH pointing at the
library sources and PYTHONHASHSEED pinned.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from time import perf_counter

from calibrate import SpeedTracker

CALIBRATE_EVERY_S = 0.02


def compact(argv, payload):
    """The part of a query's JSON answer the checks need."""
    result = payload["result"]
    if argv[0] == "classify":
        return [[r["partition"], r["verdict"] == "reducible", r["witness"], r["caveat"]]
                for r in result]
    return result


def main():
    job = json.load(sys.stdin)
    out = sys.stdout

    from heckespecht import cli

    tracer = None
    if job.get("trace_path"):
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    since_calibration = 0.0
    speed = SpeedTracker()
    latencies, marks = [], []
    start = perf_counter()
    for argv in job["queries"]:
        buf, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                code = cli.main(["--format", "json", *argv])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a raising query is a failed query
            code, err = -1, io.StringIO(repr(exc))
        latency = perf_counter() - t0
        answer = err.getvalue()[-500:]
        if code == 0:
            try:
                answer = compact(argv, json.loads(buf.getvalue()))
            except (ValueError, KeyError, TypeError) as exc:
                code, answer = -2, f"unreadable answer: {exc!r}"
        latencies.append(latency)
        marks.append(len(speed.times))
        out.write(json.dumps([code, latency, answer], separators=(",", ":")) + "\n")
        since_calibration += latency
        if since_calibration >= CALIBRATE_EVERY_S:
            speed.sample()
            since_calibration = 0.0
    wall = perf_counter() - start

    summary = {
        "wall_s": wall,
        "scaled_s": [t * speed.factor_at(k) for t, k in zip(latencies, marks)],
        "kernel_s": speed.times,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.uninstall()
        summary["layers"] = tracer.layer_metrics()
        with open(job["trace_path"], "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh, separators=(",", ":"))
    out.write(json.dumps(summary) + "\n")
    out.flush()


if __name__ == "__main__":
    main()
