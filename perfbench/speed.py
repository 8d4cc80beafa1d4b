"""Host-speed probe: times are reported as if on a host of fixed speed.

A shared 2-core Xeon VM (Python 3.11.7) drifts in speed by up to 2x over
seconds to minutes (a fixed ``Fraction`` loop, timed back to back, had 5-second
medians from 11.2 to 17.7 ms). Neither the minimum nor the median of a few
commands in a 35 s run removes drift that lasts longer than the run.

So while a command runs, a SIGALRM handler times a small fixed ``Fraction``
loop every PROBE_INTERVAL_S, in the same thread and on the same CPU as the
command. The command's wall time, less the time spent in the handler, is
then scaled by REFERENCE_NOMINAL_S / (the loop's mean time while the command
ran). Over twelve ``verify`` commands timed back to back in one process the
wall times ranged over 48% and the scaled times over 8%.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter
from typing import Callable

PROBE_INTERVAL_S = 0.05
# The loop's mean time on that VM at an idle moment, so a scaled time reads
# close to a wall time there.
REFERENCE_NOMINAL_S = 0.00028


def reference_loop() -> float:
    """Seconds one run of the fixed reference loop takes now."""
    start = perf_counter()
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(i, i + 7) * Fraction(3, i + 1)
    return perf_counter() - start


def timed(fn: Callable, *args):
    """Call fn(*args) under the probe: (result, wall seconds, scaled seconds).

    The wall time excludes the probe's own samples. A call too short to be
    sampled is scaled by reference loops run right after it.
    """
    samples: list[tuple[float, float]] = []  # (taken at, loop seconds)

    def sample(signum, frame) -> None:
        samples.append((perf_counter(), reference_loop()))

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    try:
        start = perf_counter()
        result = fn(*args)
        end = perf_counter()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    loops = [seconds for taken, seconds in samples if taken < end]
    wall = end - start - sum(loops)
    speed = statistics.mean(loops or [reference_loop() for _ in range(20)])
    return result, wall, wall * REFERENCE_NOMINAL_S / speed
