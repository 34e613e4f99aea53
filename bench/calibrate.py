"""Host speed, read from a fixed kernel that belongs to the benchmark, not the program.

The host this runs on is shared.  Its speed, even counted in this process's
CPU time, jumps between levels up to 1.5x apart, staying on one level for
a fraction of a second to minutes, while the inputs and the program stay the
same.  A reading times
:func:`reference_kernel`, which does the two kinds of work the program spends
its time on: a Python loop of small NumPy operations (the work of one row of
a sparse triangular solve, repeated) and whole-array NumPy passes over index
arrays (a sort, a histogram, a prefix sum).  A timed step is bracketed by two
readings; dividing its time by the slowdown they show gives the time the work
takes on the reference host at its usual speed.  The program cannot move a
reading: the kernel calls no ``repro`` code.

The kernel's make-up was chosen by timing candidate kernels alternately with
the program's executor, ordering, HDagg, baseline inspectors and verifier on
the reference host for 25 minutes.  This pair tracked them best: over
20-second stretches the raw times spread by 8% and the divided times by 2.4%
(bench/README.md).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from spans import clock_ns

#: Median CPU time of one :func:`reference_kernel` call on the reference host
#: (2 vCPUs of a shared Intel Xeon container) at its usual speed, in ns.
REFERENCE_NS = 13_000_000

_ROWS = 2400
_rng = np.random.default_rng(0)
_COLS = _rng.integers(0, _ROWS, size=(_ROWS, 8))
_VALUES = _rng.standard_normal(_ROWS)
_KEYS = _rng.integers(0, 50_000, size=50_000)


def reference_kernel() -> float:
    x = _VALUES.copy()
    for i in range(_ROWS):
        cols = _COLS[i]
        x[i] = (1.0 - _VALUES[cols] @ x[cols]) / 3.0
    order = np.argsort(_KEYS, kind="stable")
    counts = np.bincount(_KEYS, minlength=_KEYS.size)
    return float(x.sum()) + float(np.cumsum(counts)[order[:10]].sum())


def reading() -> int:
    """One timed call of the reference kernel, in ns of :data:`spans.clock_ns`."""
    t0 = clock_ns()
    reference_kernel()
    return clock_ns() - t0


def slowdowns(readings: Sequence[int]) -> list:
    """Host slowdown during each timed step; 1.0 is the reference host.

    Step ``j`` ran between readings ``j`` and ``j + 1``; its slowdown is their
    mean over :data:`REFERENCE_NS`.
    """
    return [(a + b) / (2 * REFERENCE_NS) for a, b in zip(readings, readings[1:])]
