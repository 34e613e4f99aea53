#!/usr/bin/env python
"""Inspector reuse and auto-selection — the library-adoption workflow.

Two features a downstream solver actually needs, composed:

* :class:`repro.core.HDaggInspector` analyses a DAG once and emits
  schedules for any ``(cores, epsilon)``: it hands the cached products of
  the DAG-only pass (transitive reduction) and of the per-core-count passes
  (aggregation, coarsening) back to the scheduler driver, which then runs
  only LBP and expansion — the schedules are byte-identical to ``hdagg``;
* :func:`repro.suite.choose_scheduler` picks serial / wavefront / SpMP /
  HDagg by total cost for an expected execution count (MKL's
  ``expected_calls`` knob made explicit, Section V-B economics).

Run:  python examples/inspector_reuse.py
"""

import time

from repro import INTEL20, simulate
from repro.core import HDaggInspector, hdagg
from repro.kernels import KERNELS
from repro.schedulers import SCHEDULERS
from repro.sparse import apply_ordering, lower_triangle, poisson2d
from repro.suite import choose_scheduler, format_table


def main() -> None:
    a, _ = apply_ordering(poisson2d(56, seed=11), "nd")
    kernel = KERNELS["sptrsv"]
    low = lower_triangle(a)
    g = kernel.dag(low)
    cost = kernel.cost(low)
    memory = kernel.memory_model(low, g)
    print(f"system: n={g.n}, edges={g.n_edges}")

    # ---- cached inspector vs one-shot across a (p, eps) sweep ----------
    sweep = [(p, eps) for p in (4, 8, 16, 20) for eps in (0.1, 0.3, 0.5)]
    t0 = time.perf_counter()
    for p, eps in sweep:
        hdagg(g, cost, p, epsilon=eps)
    one_shot = time.perf_counter() - t0

    t0 = time.perf_counter()
    inspector = HDaggInspector(g, cost)
    for p, eps in sweep:
        inspector.schedule(p, eps)
    cached = time.perf_counter() - t0
    info = inspector.cache_info()
    print(
        f"sweep of {len(sweep)} schedules: one-shot {one_shot * 1e3:.0f} ms, "
        f"cached inspector {cached * 1e3:.0f} ms "
        f"({info['groupings']} groupings / {info['schedules']} schedules cached)"
    )
    stages = inspector.schedule(*sweep[-1]).meta["stage_seconds"]
    print("passes run for a cached request: " + ", ".join(stages))

    # ---- expected-calls-driven scheduler selection ----------------------
    rows = []
    for n_exec in (1, 5, 50, 1000, 100_000):
        choice = choose_scheduler(g, cost, memory, INTEL20, n_exec)
        rows.append(
            [n_exec, choice.algorithm, choice.inspector_cycles, choice.makespan_cycles]
        )
    print()
    print(
        format_table(
            ["expected executions", "chosen", "inspector cycles", "per-run cycles"],
            rows,
            title="scheduler choice vs expected executions (Equation 2 economics)",
        )
    )

    serial = simulate(SCHEDULERS["serial"](g, cost), g, cost, memory, INTEL20.scaled(1))
    best = choose_scheduler(g, cost, memory, INTEL20, 100_000)
    print(
        f"\nat 100k executions the {best.algorithm} schedule runs "
        f"{serial.makespan_cycles / best.makespan_cycles:.2f}x faster than serial"
    )


if __name__ == "__main__":
    main()
