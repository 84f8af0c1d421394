"""The reference loop that end-to-end times are scaled by.

The CPU speed of the host this benchmark was defined on drifts by up to
1.8x, in phases from seconds to minutes long (see NOTES.md).  So the
timed operations are interleaved with runs of this loop, and a time is
reported as

    measured seconds x NOMINAL_S / (the loop's seconds around it)

that is, in seconds at the host speed where the loop takes NOMINAL_S.
The loop is pure Python on a small dict and ints, imports nothing from
the package, and runs with the garbage collector off so that it never
pays for the package's garbage.
"""

import gc
from time import perf_counter

LOOP_N = 100_000
NOMINAL_S = 0.030  # the loop's median seconds on the defining host


def reference_s() -> float:
    """Seconds one run of the reference loop takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        d: dict = {}
        s = 0
        for i in range(LOOP_N):
            k = i % 1000
            d[k] = d.get(k, 0) + i
            s += i * i % 7
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
