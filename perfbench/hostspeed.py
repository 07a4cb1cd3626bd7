"""The host-speed record that end-to-end timings are scaled by.

The benchmark's 2-vCPU host changes speed by up to 2x for tens of seconds at
constant work.  A fixed pure-Python loop, timed between units of work, slows
down with the simulator when both run in the same process: over ten runs of
each workload, a run's median loop time and its raw throughput correlated at
-0.78 to -0.88.  Each unit's host seconds are scaled by the mean of the loops
timed just before and just after it.  Units are kept short (a scenario
instance takes under a second) because the host's speed changes within
a repetition: over 100 s of back-to-back runs of one pareto instance, its
time varied 2x, and the loops around each run took the standard deviation of
its log time from 0.19 to 0.12.  What is left is slowdowns the loop does not
feel.  Other loops (dict building, object sorting, small and 32 MB numpy
reductions) tracked the simulator worse.  The loop runs no code of the
repository, so a change to the program moves scaled and raw timings alike.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import List

#: The reference loop's time at the nominal host speed in which end-to-end
#: timings are expressed.
REF_NOMINAL_S = 0.015


def ref_loop_s() -> float:
    """Time a fixed pure-Python loop: a record of the host's current speed.

    The median of three timings, so that a burst during one does not count.
    """
    times = []
    for _ in range(3):
        start = perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(perf_counter() - start)
    return statistics.median(times)


def speed_factors(ref_loops: List[float]) -> List[float]:
    """Per unit, the factor that turns its host seconds into nominal ones.

    ``ref_loops`` holds the reference loop timed before each unit and once
    after the last.
    """
    return [2.0 * REF_NOMINAL_S / (a + b) for a, b in zip(ref_loops, ref_loops[1:])]
