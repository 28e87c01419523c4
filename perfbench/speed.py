"""Host speed reference for the benchmark's timings.

The benchmark shares a few cores of a host whose speed drifts by up to ~1.5x
over seconds to minutes; a fixed pure-Python loop runs 1.5x slower in one
period than in another, on either core, in wall time and in CPU time alike.
So each timed call is bracketed by probes of a fixed reference workload,
and its wall time is scaled by REFERENCE_S over the mean of the two probes:
the seconds the call would take on a host where one probe takes
REFERENCE_S.
The program never runs the reference; a change to it moves the scaled times
exactly as it moves the raw ones.

This module uses the standard library only; it never imports lettercost.
"""

from __future__ import annotations

import gc
import math
import time

# seconds one probe takes on the reference host (2.1 GHz Xeon, fast period)
REFERENCE_S = 0.0005
PROBE_RUNS = 3


def _reference_work() -> int:
    """Fixed pure-Python work of the kind the library does: big-integer
    fraction sums reduced by gcd, a sort of tuples, dict counting."""
    num, den = 0, 1
    for i in range(1, 120):
        num, den = num * (i + 7) + i * den, den * (i + 7)
        g = math.gcd(num, den)
        num, den = num // g, den // g
    pairs = sorted(((i * 7919) % 1009, i) for i in range(1200))
    counts: dict[int, int] = {}
    for key, _ in pairs:
        counts[key] = counts.get(key, 0) + 1
    return len(counts) + num % 97


def probe() -> float:
    """Wall seconds of the reference workload: the fastest of PROBE_RUNS
    runs, since right after a call the first run pays for the caches the
    call left cold. The cyclic garbage collector is paused meanwhile: the
    probe's allocations would otherwise trigger collections of the heap the
    benchmark and the program left, and the probe would time those instead
    of the host."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(PROBE_RUNS):
            start = time.perf_counter()
            _reference_work()
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds` of wall time measured between probes `before` and `after`,
    in seconds on the reference host."""
    return seconds * REFERENCE_S * 2 / (before + after)
