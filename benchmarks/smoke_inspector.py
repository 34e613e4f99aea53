"""Quick inspector smoke benchmark for CI.

Runs the full HDagg inspector on poisson2d(64) a few times and fails when
the best run exceeds a generous wall-clock budget.  The budget is ~5x the
warm time measured on a developer laptop, so it only trips on genuine
regressions (an accidentally reintroduced quadratic loop), never on CI
jitter.

Then times ``verify_dependences`` (median of 5) on the HDagg schedule of
the natural-ordered poisson2d(96) for p = 20 (190 coarsened wavefronts,
3,432 width-partitions) and fails over the verify budget.  The verifier
reads the schedule's flat arrays; a per-partition Python walk costs tens
of times more on this schedule, so a small budget catches one creeping
back.

Last, times ``lbp_coarsen`` (median of 5) on that matrix's coarsened DAG
``G''`` at p = 20 and fails over the LBP budget.  The walk runs on Python
scalars; the former per-candidate NumPy evaluation took about twice as
long, so the budget catches it creeping back.

Usage::

    PYTHONPATH=src python benchmarks/smoke_inspector.py [budget_ms [verify_budget_ms [lbp_budget_ms]]]
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.analysis import verify_dependences
from repro.core import hdagg
from repro.core.incremental import inspect_with_artifacts
from repro.core.lbp import lbp_coarsen
from repro.graph import DAG, dag_from_matrix_lower
from repro.kernels import KERNELS
from repro.sparse import apply_ordering, lower_triangle, poisson2d

DEFAULT_BUDGET_MS = 250.0
DEFAULT_VERIFY_BUDGET_MS = 5.0
DEFAULT_LBP_BUDGET_MS = 100.0
ROUNDS = 3
MEDIAN_ROUNDS = 5


def _median_ms(fn) -> float:
    times = []
    for _ in range(MEDIAN_ROUNDS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) * 1e3


def verify_median_ms(g, schedule) -> float:
    """Median ``verify_dependences`` time on the poisson2d(96) HDagg schedule."""
    report = verify_dependences(schedule, g, max_witnesses=1, stamp_meta=False)
    if not report.ok:
        raise SystemExit(f"FAIL: HDagg schedule refuted: {report.describe()}")
    return _median_ms(
        lambda: verify_dependences(schedule, g, max_witnesses=1, stamp_meta=False)
    )


def lbp_median_ms(g2, group_cost) -> float:
    """Median ``lbp_coarsen`` time on the poisson2d(96) ``G''`` at p = 20; each
    run gets a fresh DAG object, so it builds the in-edges as a pass does."""
    return _median_ms(
        lambda: lbp_coarsen(DAG(g2.n, g2.indptr, g2.indices, check=False), group_cost, 20)
    )


def main(
    budget_ms: float = DEFAULT_BUDGET_MS,
    verify_budget_ms: float = DEFAULT_VERIFY_BUDGET_MS,
    lbp_budget_ms: float = DEFAULT_LBP_BUDGET_MS,
) -> int:
    a, _ = apply_ordering(poisson2d(64, seed=1), "nd")
    g = dag_from_matrix_lower(a)
    cost = np.asarray(KERNELS["sptrsv"].cost(a), dtype=float)[: g.n]
    hdagg(g, cost, 20)  # warm-up: imports, allocator, BLAS thread spin-up
    best = float("inf")
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        schedule = hdagg(g, cost, 20)
        best = min(best, time.perf_counter() - t0)
    schedule.validate(g)
    best_ms = best * 1e3
    stages = schedule.meta.get("stage_seconds", {})
    detail = ", ".join(f"{k}={v * 1e3:.1f}ms" for k, v in stages.items())
    print(f"poisson2d(64) inspector: best of {ROUNDS} = {best_ms:.1f} ms ({detail})")
    if best_ms > budget_ms:
        print(f"FAIL: exceeds budget of {budget_ms:.0f} ms", file=sys.stderr)
        return 1
    print(f"OK: within budget of {budget_ms:.0f} ms")
    low = lower_triangle(poisson2d(96))
    kernel = KERNELS["sptrsv"]
    g96 = kernel.dag(low)
    schedule96, art = inspect_with_artifacts(g96, kernel.cost(low), 20)
    verify_ms = verify_median_ms(g96, schedule96)
    print(f"poisson2d(96) verify_dependences: median of {MEDIAN_ROUNDS} = {verify_ms:.2f} ms")
    if verify_ms > verify_budget_ms:
        print(f"FAIL: verify exceeds budget of {verify_budget_ms:.1f} ms", file=sys.stderr)
        return 1
    print(f"OK: verify within budget of {verify_budget_ms:.1f} ms")
    lbp_ms = lbp_median_ms(art.g2, art.group_cost)
    print(f"poisson2d(96) lbp_coarsen: median of {MEDIAN_ROUNDS} = {lbp_ms:.1f} ms")
    if lbp_ms > lbp_budget_ms:
        print(f"FAIL: lbp exceeds budget of {lbp_budget_ms:.0f} ms", file=sys.stderr)
        return 1
    print(f"OK: lbp within budget of {lbp_budget_ms:.0f} ms")
    return 0


if __name__ == "__main__":
    try:
        budgets = [float(arg) for arg in sys.argv[1:4]]
    except ValueError:
        print(
            f"usage: {sys.argv[0]} [budget_ms [verify_budget_ms [lbp_budget_ms]]]  "
            f"(budgets must be numbers, got {sys.argv[1:4]!r})",
            file=sys.stderr,
        )
        raise SystemExit(2)
    raise SystemExit(main(*budgets))
