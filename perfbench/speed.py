"""Reference-speed timing for a host whose CPU speed drifts.

On the shared 4-vCPU VM these bounds were set on, a fixed pure-Python loop
timed back to back runs up to 30% slower or faster for seconds at a time,
and the whole machine drifts by a third over minutes; every system slows
together. So each timed stretch of the benchmark is bracketed by a short
fixed workload of Python calls and dict and set operations, like the
partitioners' own, and times are reported at reference speed:

    measured time / slowness,  slowness = workload time / REFERENCE_NS

averaged over the two brackets. ``REFERENCE_NS`` is that workload's median
on that VM, so on it the reference-speed figure is the wall time.
"""
from __future__ import annotations

import time

REFERENCE_NS = 1_500_000
_STEPS = 4_000
# Longest stretch timed between two brackets. The machine's speed changes
# within a fraction of a second, so longer stretches would be scaled by
# stale brackets.
STRETCH_NS = 50_000_000


def _step(d: dict, i: int) -> int:
    key = (i & 1023, i % 7)
    s = d.get(key)
    if s is None:
        s = d[key] = set()
    s.add(i)
    return len(s)


def slowness() -> float:
    """How much slower than the reference the machine runs right now
    (best of three short runs, so one interruption does not count)."""
    best = None
    for _ in range(3):
        d: dict = {}
        t0 = time.perf_counter_ns()
        for i in range(_STEPS):
            _step(d, i)
        t = time.perf_counter_ns() - t0
        best = t if best is None or t < best else best
    return best / REFERENCE_NS


class Bracket:
    """Slowness measured between consecutive timed stretches."""

    def __init__(self) -> None:
        self.factors = [slowness()]

    def close(self) -> float:
        """Measure slowness now; return the mean of the two measurements
        around the stretch that just ended, its divisor."""
        self.factors.append(slowness())
        return (self.factors[-2] + self.factors[-1]) / 2
