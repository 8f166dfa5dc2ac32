"""Machine-speed calibration for the timed metrics.

On a shared VM the speed of one core drifts by 10-25 % between runs and
within a run, on a time scale of seconds, far more than the changes the
benchmark is meant to see.  ``kernel`` is a fixed piece of pure-Python
work of the kinds a query does (small-int arithmetic, tuple keys and
dict updates like the algebra; building and running an argparse parser
like the command line); it never touches the library, so no change to
the library can speed it up.  Timing it between queries tracks the
machine's current speed, and each query's latency is scaled by
``REFERENCE_KERNEL_S / (median of the WINDOW kernel times around it)``:
the latency the query would have had on a machine that runs the kernel
in REFERENCE_KERNEL_S.

REFERENCE_KERNEL_S is the kernel's median time on a 2-vCPU x86-64 VM
with CPython 3.11, so scaled figures there read close to raw ones.
"""

from __future__ import annotations

import argparse
import statistics
from time import perf_counter

REFERENCE_KERNEL_S = 0.0018
WINDOW = 9


def _step(k: int, i: int) -> int:
    return (k * i + 7) % 97


def _arithmetic() -> int:
    acc: dict = {}
    for i in range(1500):
        k = (i * 7919) % 1009
        key = (k, i & 15)
        acc[key] = acc.get(key, 0) + _step(k, i)
    return len(acc)


def _parsing():
    parser = argparse.ArgumentParser(prog="kernel")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("one", "two", "three"):
        p = sub.add_parser(name)
        p.add_argument("--field", required=True)
        p.add_argument("--n", type=int)
    return parser.parse_args(["--format", "json", "two", "--field", "x", "--n", "3"])


def kernel():
    """Half dict and small-int work, like the algebra; half argparse and
    object construction, like the command line's own overhead."""
    _arithmetic()
    _parsing()


def time_kernel() -> float:
    start = perf_counter()
    kernel()
    return perf_counter() - start


class SpeedTracker:
    """Kernel times taken during a run, and latency scale factors from
    the median of the kernel times around a given point."""

    def __init__(self, warmup: int = WINDOW):
        self.times = [time_kernel() for _ in range(warmup)]

    def sample(self):
        self.times.append(time_kernel())

    def factor_at(self, mark: int) -> float:
        """Scale for a query issued when ``mark`` kernel times had been
        taken: WINDOW times centred on that point."""
        lo = max(0, min(mark - WINDOW // 2 - 1, len(self.times) - WINDOW))
        return REFERENCE_KERNEL_S / statistics.median(self.times[lo:lo + WINDOW])
