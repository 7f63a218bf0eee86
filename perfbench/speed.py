"""Machine-speed reference used to calibrate the benchmark's wall times.

On a shared machine the speed of a core drifts by tens of percent over
seconds to minutes, and it drifts for every process alike: identical passes
of ``anneal`` took from 5.7 s to 12.4 s across ten runs, while the time of
this fixed reference, sampled between the operations of a pass, rose and
fell with them (correlation 0.92 over 49 passes).  The benchmark's times
are therefore scaled to the reference's usual speed:

    calibrated = wall * NOMINAL_S / (mean of the pass's reference samples)

The reference touches no lhdopt code, so a change to the program cannot
move it; it uses the same kind of work the program does (small NumPy
array operations driven from the interpreter).
"""

from __future__ import annotations

import time

import numpy as np

# one sample's time at the usual speed of the 2-core machine the benchmark
# was written on; it only sets the unit of calibrated times
NOMINAL_S = 0.005

_X = (np.arange(400, dtype=np.int64).reshape(50, 8) * 7) % 37


def _work(rounds: int) -> float:
    s = 0.0
    for i in range(rounds):
        d = np.abs(_X[i % 50] - _X).sum(axis=1) + 1.0
        s += float(np.sum(d ** -15.0))
    if not s > 0.0:  # consume the result so no step can be skipped
        raise RuntimeError("speed reference computed no work")
    return s


def sample() -> float:
    """Seconds one fixed piece of NumPy and interpreter work takes now.

    A short untimed warm-up first refills the caches that the operation
    just timed (often another process) has evicted, so the sample measures
    the core's speed rather than the previous operation's memory use.
    """
    _work(100)
    t0 = time.perf_counter()
    _work(500)
    return time.perf_counter() - t0


def calibrate(wall_s: float, ref_s: float) -> float:
    return wall_s * NOMINAL_S / ref_s
