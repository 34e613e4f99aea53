"""Quick executor smoke benchmark for CI.

Runs the SpTRSV executor (``execute_schedule``) on the HDagg schedule of
poisson2d(64), checks the solution against the sequential oracle, and fails
when the median of a few runs exceeds a wall-clock budget.  The executor
checks the whole order once and then runs it on plain scalars; the budget
sits well below what the former per-row dependence-checking loop took on
this matrix, so it trips if a per-iteration check (or any other per-row
NumPy call) creeps back into the loop.

Usage::

    PYTHONPATH=src python benchmarks/smoke_executor.py [budget_ms]
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.core import hdagg
from repro.graph import dag_from_matrix_lower
from repro.kernels import KERNELS, sptrsv_reference
from repro.runtime import execute_schedule
from repro.sparse import apply_ordering, lower_triangle, poisson2d

DEFAULT_BUDGET_MS = 5.0
ROUNDS = 5


def main(budget_ms: float = DEFAULT_BUDGET_MS) -> int:
    a, _ = apply_ordering(poisson2d(64, seed=1), "nd")
    low = lower_triangle(a)
    kernel = KERNELS["sptrsv"]
    g = dag_from_matrix_lower(a)
    schedule = hdagg(g, np.asarray(kernel.cost(low), dtype=float)[: g.n], 20)
    b = np.random.default_rng(0).standard_normal(low.n_rows)
    x = execute_schedule(kernel, low, schedule, b)  # warm-up
    np.testing.assert_allclose(x, sptrsv_reference(low, b), rtol=1e-10)
    times = []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        execute_schedule(kernel, low, schedule, b)
        times.append(time.perf_counter() - t0)
    median_ms = float(np.median(times)) * 1e3
    print(f"poisson2d(64) SpTRSV executor: median of {ROUNDS} = {median_ms:.2f} ms")
    if median_ms > budget_ms:
        print(f"FAIL: exceeds budget of {budget_ms:.1f} ms", file=sys.stderr)
        return 1
    print(f"OK: within budget of {budget_ms:.1f} ms")
    return 0


if __name__ == "__main__":
    try:
        budget = float(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_BUDGET_MS
    except ValueError:
        print(
            f"usage: {sys.argv[0]} [budget_ms]  (budget_ms must be a number, "
            f"got {sys.argv[1]!r})",
            file=sys.stderr,
        )
        raise SystemExit(2)
    raise SystemExit(main(budget))
