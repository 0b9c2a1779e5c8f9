"""Host speed calibration: times in milliseconds at the reference machine's speed.

The benchmark runs on a few vCPUs of a shared host whose speed is not
its own: a fixed CPU loop there flips between a fast state and one about
1.9x slower many times a second, and the share of slow time drifts over
minutes.  It shows in process CPU time as much as in wall time, so
neither CPU-time clocks nor longer runs remove it.  The worker therefore
times a fixed calibration burst between requests, at most
CALIBRATE_EVERY_NS apart, and every measured time is multiplied by
REFERENCE_NS over the mean burst time within HALO_NS of its interval.  A
request measured while the host runs at the reference speed keeps its
measured value; one measured while the host runs 1.4x slower is divided
by 1.4.  The mean, not the median, of the bursts is used because a
request that spans many flips is slowed by their mean.

The burst is exact polynomial arithmetic over Fraction coefficients in
the benchmark's own code, so it exercises the interpreter the way the
program does (dicts of exponent tuples, Fraction products and sums) and
never calls the program.  It runs with the garbage collector paused, so
the program's heap cannot change its cost.  Changes to the program do
not change the burst, so they show in the scaled times in full.
"""

import gc
import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

# Burst time at the reference speed: a round figure between the fast (1.3 ms)
# and slow (2.5 ms) states of a 2-vCPU Intel Xeon VM running Python 3.11.
REFERENCE_NS = 2_000_000
CALIBRATE_EVERY_NS = 50_000_000
HALO_NS = 500_000_000

_A = {(i, j): Fraction(i + 1, j + 2) for i in range(5) for j in range(4)}
_B = {(i, j): Fraction(j - 3, i + 1) for i in range(4) for j in range(5)}


def _burst():
    out = {}
    for (a0, a1), va in _A.items():
        for (b0, b1), vb in _B.items():
            e = (a0 + b0, a1 + b1)
            out[e] = out.get(e, Fraction(0)) + va * vb
    return out


def sample():
    """(midpoint in perf_counter_ns, burst duration in ns) of one calibration burst."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        _burst()
        end = time.perf_counter_ns()
    finally:
        if enabled:
            gc.enable()
    return (start + end) // 2, end - start


def scale(intervals, samples):
    """Each (start_ns, end_ns, value) as value * REFERENCE_NS / local burst mean.

    The local mean is over the bursts within HALO_NS of the interval, or
    the nearest burst when none is that close.  Also returns the factors.
    """
    samples = sorted(samples)
    times = [t for t, _ in samples]
    values, factors = [], []
    for start, end, value in intervals:
        lo = bisect_left(times, start - HALO_NS)
        hi = bisect_right(times, end + HALO_NS)
        if lo == hi:
            mid = (start + end) // 2
            nearest = min(samples, key=lambda s: abs(s[0] - mid))
            window = [nearest[1]]
        else:
            window = [ns for _, ns in samples[lo:hi]]
        factor = REFERENCE_NS / statistics.fmean(window)
        values.append(value * factor)
        factors.append(factor)
    return values, factors
