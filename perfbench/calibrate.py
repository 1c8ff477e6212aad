"""Calibrated time: CPU seconds at a fixed machine speed.

The shared host the benchmark runs on changes speed by up to half within a
minute (other tenants contend for the same cores and caches), and that drift
moved the raw timings of identical code by 25-45% between runs; on top of
it, the benchmark's thread is now and then not running for tens of
milliseconds, which put single slow operations into the tail. So latencies
are the thread's CPU time, and the worker times a fixed reference slice, in
CPU time too, every CAL_INTERVAL_S, on a timer signal that interrupts
operations as well; each operation's latency (without the samples) is scaled
by REF_NOMINAL_S over the reference's duration during or around it. The
reference is pure Python over ints, a frozenset and a dict, like brsc's own
loops, and shares no code with brsc, so a change to the program moves
calibrated times as it moves raw ones.
"""

import random
import statistics
from time import perf_counter, thread_time

# Duration of one reference slice at the speed calibrated times are quoted
# at: roughly its median on the 2-vCPU Xeon host the benchmark was defined on.
REF_NOMINAL_S = 1.25e-3
# Seconds between two reference samples.
CAL_INTERVAL_S = 0.1
# An operation's speed is the median of the reference samples inside it if
# there are NEAREST, else of the NEAREST nearest and all within WINDOW_S.
WINDOW_S = 2.0
NEAREST = 5

_N = 8
_rng = random.Random(2309)
_FACES = frozenset(_rng.getrandbits(_N) for _ in range(120))
_WEIGHT = {x: x.bit_count() for x in _FACES}
_BITS = tuple(1 << p for p in range(_N))


def reference():
    """The fixed slice of work whose duration measures the machine's speed.
    Every int it touches is below 256, so CPython's small-int cache serves
    them and the slice allocates nothing."""
    faces, weight, total = _FACES, _WEIGHT, 0
    for _ in range(6):
        for X in range(1 << _N):
            for b in _BITS:
                Y = X ^ b
                if Y in faces:
                    total ^= weight[Y]
    return total


def sample():
    """(perf_counter time, CPU seconds one reference slice takes now):
    median of three."""
    at = perf_counter()
    runs = []
    for _ in range(3):
        start = thread_time()
        reference()
        runs.append(thread_time() - start)
    return at, statistics.median(runs)


def scale(intervals, samples):
    """Factor REF_NOMINAL_S / reference duration for each (start, end, ...)
    interval: from the samples inside it if there are NEAREST, else from the
    NEAREST samples nearest to it and any others within WINDOW_S."""
    factors = []
    for start, end, *_ in intervals:
        near = sorted((max(start - t, t - end, 0.0), d) for t, d in samples)
        inside = [d for gap, d in near if gap == 0.0]
        if len(inside) < NEAREST:
            inside = [d for gap, d in near[:NEAREST]] + [d for gap, d in near[NEAREST:] if gap <= WINDOW_S]
        factors.append(REF_NOMINAL_S / statistics.median(inside))
    return factors
