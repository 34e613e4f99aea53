"""Quick executor smoke benchmark for CI.

Runs three schedule executors (``execute_schedule``) on the HDagg schedule of
ND-ordered poisson2d(64): SpTRSV, SpIC0 and SpILU0.  Each result is checked
against its sequential oracle, and each kernel fails when the median of a
few cold runs exceeds its own wall-clock budget.  A cold run gets a fresh
``copy()`` of the matrix, so it pays for everything memoised on the matrix;
the reused median, the next few runs on the warmed-up matrix, is printed
beside it.  The executors check the whole order once and then run it on
plain Python scalars; every budget sits well below what the former loops
took on this matrix (a per-row dependence check for SpTRSV, NumPy calls per
stored entry for the factor row bodies), so it trips if per-row checks or
per-entry NumPy creep back into a loop.

SpTRSV also fails when its reused median exceeds its cold median: a cold
SpTRSV is a matrix's first solve, which runs the order literally, and a
reused one runs the matrix's level program (built by the first of the
reused runs), which must not be the slower of the two.

Usage::

    PYTHONPATH=src python benchmarks/smoke_executor.py [sptrsv_ms [spic0_ms [spilu0_ms]]]
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.core import hdagg
from repro.kernels import KERNELS
from repro.runtime import execute_schedule
from repro.sparse import apply_ordering, lower_triangle, poisson2d

#: default budget (ms) per kernel, in command-line order
DEFAULT_BUDGETS_MS = {"sptrsv": 5.0, "spic0": 25.0, "spilu0": 50.0}
ROUNDS = 5


def _median_ms(kernel, operands, schedule, rhs) -> float:
    """Median time of ``execute_schedule`` over ``operands``, one run each."""
    times = []
    for operand in operands:
        t0 = time.perf_counter()
        execute_schedule(kernel, operand, schedule, rhs)
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) * 1e3


def main(budgets_ms: dict) -> int:
    a, _ = apply_ordering(poisson2d(64, seed=1), "nd")
    b = np.random.default_rng(0).standard_normal(a.n_rows)
    over, slower = [], []
    for name, budget_ms in budgets_ms.items():
        kernel = KERNELS[name]
        m = lower_triangle(a) if name == "sptrsv" else a
        rhs = b if name == "sptrsv" else None
        g = kernel.dag(m)
        schedule = hdagg(g, np.asarray(kernel.cost(m), dtype=float)[: g.n], 20)
        got = execute_schedule(kernel, m, schedule, rhs)  # warm-up
        want = kernel.reference(m, rhs)
        if name == "sptrsv":
            np.testing.assert_allclose(got, want, rtol=1e-10)
        else:
            assert np.array_equal(got.data, want.data), f"{name}: factor differs from the oracle"
        # a generator, so each copy and its memo are freed after their run,
        # as in a one-shot solve
        cold = (m.copy() for _ in range(ROUNDS))
        median_ms = _median_ms(kernel, cold, schedule, rhs)
        reused_ms = _median_ms(kernel, [m] * ROUNDS, schedule, rhs)
        print(
            f"poisson2d(64) {name} executor: cold median of {ROUNDS} = {median_ms:.2f} ms "
            f"(budget {budget_ms:.1f} ms), reused {reused_ms:.2f} ms"
        )
        if median_ms > budget_ms:
            over.append(name)
        if name == "sptrsv" and reused_ms > median_ms:
            slower.append(name)
    if over:
        print(f"FAIL: {', '.join(over)} over budget", file=sys.stderr)
    if slower:
        print(f"FAIL: {', '.join(slower)} reused solve slower than cold", file=sys.stderr)
    if over or slower:
        return 1
    print("OK: every executor within budget")
    return 0


if __name__ == "__main__":
    args = sys.argv[1:]
    try:
        if len(args) > len(DEFAULT_BUDGETS_MS):
            raise ValueError
        budgets = {**DEFAULT_BUDGETS_MS, **dict(zip(DEFAULT_BUDGETS_MS, map(float, args)))}
    except ValueError:
        print(
            f"usage: {sys.argv[0]} [sptrsv_ms [spic0_ms [spilu0_ms]]]  "
            f"(at most three numbers, got {args!r})",
            file=sys.stderr,
        )
        raise SystemExit(2)
    raise SystemExit(main(budgets))
