"""Quick LBC, DAGP and p2p simulator smoke benchmark for CI.

Times the ``lbc`` and ``dagp`` schedulers (median of 5 runs each) on the
SpTRSV DAG of natural-order poisson2d(128) and of the ``rand-sparse`` suite
matrix at p = 8, checks every schedule ``==`` to a second run's, and fails
when a median exceeds its budget.  LBC searches its cut over etree subtree
roots and DAGP bisects on component labels, both over whole arrays or
Python lists.  The budgets sit below what the former per-vertex NumPy
loops took, on both matrices for LBC and on rand-sparse for DAGP (its
old/new gap on the connected poisson2d(128) is under 2x), so they trip if
either creeps back.

On the same DAGs it then times ``simulate`` of the ``spmp`` schedule (the
p2p clock recurrence) on the intel20 machine model scaled to p = 8, and
checks the result ``==`` to a second run's.  The simulator sorts its edges
by one integer key, finds the cross-partition pairs with one sort of 1-D
keys and runs the clock on Python lists; its fixed 20 ms budget sits below
what the former three-key lexsort, 2-D ``np.unique`` and per-partition
NumPy loop took.

Usage::

    PYTHONPATH=src python benchmarks/smoke_baselines.py [lbc_ms [dagp_ms]]
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.graph import dag_from_matrix_lower
from repro.kernels import KERNELS
from repro.runtime.machine import INTEL20
from repro.runtime.simulator import simulate
from repro.schedulers import SCHEDULERS
from repro.sparse import lower_triangle, poisson2d
from repro.suite.matrices import suite_by_name

DEFAULT_LBC_BUDGET_MS = 200.0
DEFAULT_DAGP_BUDGET_MS = 250.0
SIMULATE_BUDGET_MS = 20.0
ROUNDS = 5
P = 8


def _meta(s) -> dict:
    return {k: v for k, v in s.meta.items() if k != "stage_seconds"}


def _same(a, b) -> bool:
    arrays = ("order", "part_ptr", "part_core", "level_ptr")
    same = all(np.array_equal(getattr(a, f), getattr(b, f)) for f in arrays)
    return same and _meta(a) == _meta(b)


def _same_result(a, b) -> bool:
    fields = ("makespan_cycles", "hits", "misses", "n_barriers", "n_p2p_syncs",
              "sync_cycles", "miss_cycles", "level_spans")
    same = all(getattr(a, f) == getattr(b, f) for f in fields)
    return same and np.array_equal(a.core_busy_cycles, b.core_busy_cycles)


def _median_ms(run, same, first) -> float | None:
    """Median of ``ROUNDS`` timed runs, or ``None`` if one differs from ``first``."""
    times = []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        out = run()
        times.append(time.perf_counter() - t0)
        if not same(out, first):
            return None
    return float(np.median(times)) * 1e3


def main(lbc_ms: float = DEFAULT_LBC_BUDGET_MS, dagp_ms: float = DEFAULT_DAGP_BUDGET_MS) -> int:
    cases = {
        "poisson2d(128)": lower_triangle(poisson2d(128, seed=1)),
        "rand-sparse": lower_triangle(suite_by_name()["rand-sparse"].build()),
    }
    budgets = {"lbc": lbc_ms, "dagp": dagp_ms}
    machine = INTEL20.scaled(P)
    failed = False
    for name, a in cases.items():
        g = dag_from_matrix_lower(a)
        kernel = KERNELS["sptrsv"]
        cost = kernel.cost(a)
        for algo, budget in budgets.items():
            first = SCHEDULERS[algo](g, cost, P)  # warm-up and reference
            median_ms = _median_ms(lambda: SCHEDULERS[algo](g, cost, P), _same, first)
            if median_ms is None:
                print(f"FAIL: {name} {algo}: schedule differs between runs", file=sys.stderr)
                return 1
            print(f"{name} {algo}: median of {ROUNDS} = {median_ms:.1f} ms")
            if median_ms > budget:
                print(f"FAIL: {name} {algo} exceeds budget of {budget:.1f} ms", file=sys.stderr)
                failed = True
        schedule = SCHEDULERS["spmp"](g, cost, P)
        memory = kernel.memory_model(a, g)
        args = (schedule, g, cost, memory, machine)
        median_ms = _median_ms(lambda: simulate(*args), _same_result, simulate(*args))
        if median_ms is None:
            print(f"FAIL: {name} simulate: result differs between runs", file=sys.stderr)
            return 1
        print(f"{name} simulate(spmp): median of {ROUNDS} = {median_ms:.1f} ms")
        if median_ms > SIMULATE_BUDGET_MS:
            print(f"FAIL: {name} simulate exceeds budget of {SIMULATE_BUDGET_MS:.1f} ms",
                  file=sys.stderr)
            failed = True
    if failed:
        return 1
    print(f"OK: lbc within {lbc_ms:.1f} ms, dagp within {dagp_ms:.1f} ms, "
          f"simulate within {SIMULATE_BUDGET_MS:.1f} ms")
    return 0


if __name__ == "__main__":
    try:
        args = [float(x) for x in sys.argv[1:3]]
    except ValueError:
        print(
            f"usage: {sys.argv[0]} [lbc_ms [dagp_ms]]  (budgets must be numbers, "
            f"got {sys.argv[1:3]!r})",
            file=sys.stderr,
        )
        raise SystemExit(2)
    raise SystemExit(main(*args))
