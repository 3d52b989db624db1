"""Host-speed calibration: a fixed kernel whose time tracks the host's speed.

On a shared 2-core machine the same work runs up to 1.5 times slower, in
spells of a second to minutes, and a whole window of runs can fall in a slow
spell.  child.py times :func:`calibrate` right before and right after its
``run_pipeline`` call, in the same process.  run.py divides each run's
timings by the mean of the two (and multiplies its rates by it), times
``CAL_REF_S``: the timing as it would read on a host where the kernel takes
``CAL_REF_S``.  The kernel never touches tkgkit, so a change to the program
moves the scaled timings as much as the raw ones.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

# the kernel's time on a quiet 2-core machine of the README's kind
CAL_REF_S = 0.03
CAL_REPEATS = 3
CAL_ROWS = 1000
CAL_STEPS = 40
CAL_LOOP = 50_000


def calibrate() -> float:
    """Seconds for a fixed mix of the pipeline's two kinds of work, the
    fastest of CAL_REPEATS tries: in-place Adam-style numpy updates of a
    1000 x 100 array, then a dict-counting loop in the interpreter.

    The buffers are allocated and touched before the clock starts, so page
    faults add no noise of their own.
    """
    base = np.linspace(-1.0, 1.0, CAL_ROWS * 100).reshape(CAL_ROWS, 100)
    a, m, v, g, t = (np.empty_like(base) for _ in range(5))
    best = float("inf")
    for _ in range(CAL_REPEATS):
        np.copyto(a, base)
        m.fill(0.0)
        v.fill(0.0)
        g.fill(0.0)
        t.fill(0.0)
        counts: dict[int, int] = {}
        start = perf_counter()
        for _ in range(CAL_STEPS):
            np.multiply(a, 0.01, out=g)
            m *= 0.9
            g *= 0.1
            m += g
            np.multiply(g, g, out=t)
            v *= 0.999
            t *= 0.1
            v += t
            np.sqrt(v, out=t)
            t += 1e-8
            np.divide(m, t, out=t)
            t *= 0.01
            a -= t
        for i in range(CAL_LOOP):
            k = i % 5000
            counts[k] = counts.get(k, 0) + i
        best = min(best, perf_counter() - start)
    return best
