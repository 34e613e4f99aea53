"""Quick ordering smoke benchmark for CI.

Times nested dissection (``nested_dissection``, the METIS stand-in every
input goes through) on poisson2d(128) and on the ``chain-pure`` suite
matrix, and fails when the median of a few runs of either exceeds a
wall-clock budget.  The breadth-first sweeps run over plain Python lists;
the budget sits well below what the former per-vertex NumPy loop took on
both matrices, and far below a level-synchronous NumPy frontier BFS (one
round of NumPy calls per level, which is slowest on the deep, narrow
chain), so it trips if either creeps back.

Usage::

    PYTHONPATH=src python benchmarks/smoke_ordering.py [budget_ms]
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.sparse import nested_dissection, poisson2d
from repro.suite.matrices import suite_by_name

DEFAULT_BUDGET_MS = 150.0
ROUNDS = 5


def main(budget_ms: float = DEFAULT_BUDGET_MS) -> int:
    cases = {
        "poisson2d(128)": poisson2d(128, seed=1),
        "chain-pure": suite_by_name()["chain-pure"].build(),
    }
    failed = False
    for name, a in cases.items():
        perm = nested_dissection(a)  # warm-up
        if not np.array_equal(np.sort(perm), np.arange(a.n_rows)):
            print(f"FAIL: {name}: not a permutation", file=sys.stderr)
            return 1
        times = []
        for _ in range(ROUNDS):
            t0 = time.perf_counter()
            nested_dissection(a)
            times.append(time.perf_counter() - t0)
        median_ms = float(np.median(times)) * 1e3
        print(f"{name} nested dissection: median of {ROUNDS} = {median_ms:.1f} ms")
        if median_ms > budget_ms:
            print(f"FAIL: {name} exceeds budget of {budget_ms:.1f} ms", file=sys.stderr)
            failed = True
    if failed:
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
