"""Machine-speed reference for the benchmark's timings.

The benchmark runs on shared hosts whose cores slow down for seconds to
minutes at a time, by up to half, when other tenants load them.  A
median over a whole run follows those spells, so two runs of the same
code can differ by more than any useful bound.  The process's CPU time
moves with its wall time, so the slow spells are the core running
slower, not the process waiting.

``probe()`` times a fixed piece of work that never touches
proxcycle, made of the three kinds of work the library's ops do: an
integer loop, float list, dict and string work, and small numpy
matrix-vector products.  run.py runs it before and after every op, and
``speed_scales`` scales each op's latency by ``REFERENCE_S`` over the
median reference time of the probes within ``WINDOW_S`` of the op, so a
timing reads as seconds at the speed where the reference takes
``REFERENCE_S`` seconds.  A long op sees only the two probes around it,
so a probe repeats the reference for at least ``PROBE_SHARE`` of the op
before it: one 12 ms run is too short a look at the speed around an op
of seconds.  A short op sees many probes, so the noise of a single
probe does not become its own.  A change to the library changes the op's latency and not the
reference, so it shows in full.
"""
from __future__ import annotations

import bisect
import math
import statistics
from time import perf_counter

import numpy as np

# about the reference's time on the 2-vCPU machine the bounds were set on
REFERENCE_S = 0.0125
# probes this close to an op count for its speed; slow spells last longer
WINDOW_S = 0.5
# a probe runs for at least this share of the op before it; in a trial on
# the 2-s ops of long_trajectory, 0.25 cut the spread of corrected
# latencies per op shape from 0.09-0.31 (one run of the reference) to
# 0.07-0.14
PROBE_SHARE = 0.25

# fixed positive entries, built without numpy.random, whose import alone
# would add megabytes to the measured process's peak memory
_G = (np.arange(24 * 24).reshape(24, 24) % 11 + 1) / 11.0
_W = np.full(24, 1.0 / 24)


def _integers() -> int:
    s = 0
    for i in range(60_000):
        s += i * i % 7
    return s


def _objects() -> str:
    # small pieces, so that the reference adds nothing to peak memory
    text = ""
    for k in range(10):
        xs = [float(i) * 0.5 + k for i in range(300)]
        ys = [a * 1.0001 - 0.5 for a in xs]
        d = {}
        for i, (a, b) in enumerate(zip(xs, ys)):
            d[i, i & 7] = math.sqrt(a * a + b * b)
        text = ",".join(f"{v:.6g}" for v in list(d.values())[:150])
    return text


def _matvec() -> np.ndarray:
    v = _W
    for _ in range(1500):
        v = _G @ v
        v = v / v.sum()
    return v


def probe(after_s: float = 0.0) -> tuple[float, float]:
    """Run the reference at least once, and for at least PROBE_SHARE of
    after_s; returns the probe's midpoint on the perf_counter clock and
    the mean duration of one run of the reference."""
    t0 = perf_counter()
    runs = 0
    while True:
        _integers()
        _objects()
        _matvec()
        runs += 1
        t1 = perf_counter()
        if t1 - t0 >= PROBE_SHARE * after_s:
            return 0.5 * (t0 + t1), (t1 - t0) / runs


def speed_scales(spans: list[tuple[float, float]],
                 probes: list[tuple[float, float]]) -> list[float]:
    """For each (start, end) span, the factor that turns its duration into
    seconds at the reference speed.  ``probes`` are probe() results in
    time order, one right before and one right after every span."""
    times = [t for t, _ in probes]
    out = []
    for t0, t1 in spans:
        near = probes[bisect.bisect_left(times, t0 - WINDOW_S):
                      bisect.bisect_right(times, t1 + WINDOW_S)]
        out.append(REFERENCE_S / statistics.median(ref for _, ref in near))
    return out
