"""Schedule-driven execution: the numeric check and the core stepper.

Python threads cannot exhibit real parallel speedups (GIL), so the
executors validate the *correctness* contract of a schedule instead.

The numeric check: any interleaving of the width-partitions of one level,
with each partition's vertices in order, must compute the same result as
the sequential kernel.  Two interleavings are provided:

* :func:`execute_schedule` — the canonical order (levels, then partitions,
  then vertices);
* :func:`interleaved_order` — a seeded pseudo-random round-robin across the
  partitions of each level, emulating an adversarial concurrent timing.

Both go through the kernels' ``execute_in_order``, which checks the whole
order against every dependence once, raising on any violation, and then runs
it in that order, so a schedule bug cannot silently produce a
correct-looking number.

The synchronisation check: :func:`run_cores` steps the ``p`` cores'
programs on one thread under the schedule's own sync — a global barrier
after every coarsened wavefront (``barrier``) or per-vertex completion
flags (``p2p``, SpMP's point-to-point waits).  A deadlock is found
structurally — a round in which no core can move — so there is no clock,
thread, seed or policy to choose; :mod:`repro.analysis.tracecheck` says
why one deterministic order suffices.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from ..core.schedule import Schedule
from ..graph.dag import DAG
from ..kernels.base import SparseKernel
from ..observability.state import current_tracer
from ..observability.timeline import TimelineRecorder
from ..resilience.faults import fault_point
from ..sparse.csr import CSRMatrix, INDEX_DTYPE
from .simulator import bind_dynamic_partitions

__all__ = ["execute_schedule", "interleaved_order", "run_cores", "ExecutionError"]


def interleaved_order(schedule: Schedule, *, seed: int = 0) -> np.ndarray:
    """A randomised order consistent with the schedule's concurrency.

    Within each level, one vertex is drawn at a time from a randomly chosen
    still-active partition (partitions advance front to back, as the cores
    would).  Levels remain strictly ordered.  For ``sync="p2p"`` schedules
    this is *more* conservative than the runtime allows (no cross-level
    overlap), which is the safe direction for a correctness check.
    """
    rng = np.random.default_rng(seed)
    order = schedule.order.tolist()
    ptr = schedule.part_ptr.tolist()
    out = np.empty(len(order), dtype=INDEX_DTYPE)
    filled = 0
    lp = schedule.level_ptr.tolist()
    for lo, hi in zip(lp[:-1], lp[1:]):
        cursors = ptr[lo:hi]  # next slot of each partition in the level
        active = list(range(hi - lo))
        while active:
            k = active[int(rng.integers(len(active)))]
            out[filled] = order[cursors[k]]
            filled += 1
            cursors[k] += 1
            if cursors[k] == ptr[lo + k + 1]:
                active.remove(k)
    return out


def execute_schedule(
    kernel: SparseKernel,
    a: CSRMatrix,
    schedule: Schedule,
    b: np.ndarray | None = None,
    *,
    interleave_seed: int | None = None,
):
    """Run ``kernel`` on ``a`` following ``schedule``.

    With ``interleave_seed`` set, uses a randomised level-consistent
    interleaving instead of the canonical order.  Dependence violations
    raise :class:`repro.kernels.base.KernelError`.
    """
    if interleave_seed is None:
        order = schedule.execution_order()
    else:
        order = interleaved_order(schedule, seed=interleave_seed)
    return kernel.execute_in_order(a, order, b)


class ExecutionError(RuntimeError):
    """A core hit an unmet dependence, a deadlock, or a failing vertex.

    Attributes ``core``, ``vertex`` and ``dependence`` locate the failure
    (``None`` where not applicable) so callers — the trace checker, CI
    harnesses — can report without parsing the message.
    """

    def __init__(
        self,
        message: str,
        *,
        core: Optional[int] = None,
        vertex: Optional[int] = None,
        dependence: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.core = core
        self.vertex = vertex
        self.dependence = dependence


def run_cores(
    schedule: Schedule,
    g: DAG,
    process_vertex: Optional[Callable[[int], None]] = None,
    *,
    cost: np.ndarray | None = None,
    trace=None,
    timeline: Optional[TimelineRecorder] = None,
) -> None:
    """Step every core's program under the schedule's sync, on one thread.

    Dynamic (core = -1) partitions are bound first (unit costs when
    ``cost`` is None).  Then the stepper makes rounds over cores
    ``0..p-1``; in each round every core runs until it is blocked — at the
    barrier closing its current level (``barrier``: it releases once every
    core has arrived, and each core records one ``barrier`` event), or on
    the first in-edge of its next vertex that is not done (``p2p``: once
    all are done the core records one ``acquire`` event per in-edge, in
    ``in_idx`` order, before the vertex's ``exec`` event).

    ``trace=`` takes any object with a ``record(kind, core, arg)`` method
    (canonically :class:`repro.analysis.tracecheck.TraceRecorder`);
    ``timeline=`` collects wall-clock ``busy`` / ``barrier_wait`` /
    ``p2p_wait`` segments per core.  With the ambient observability state
    enabled, barrier schedules emit ``execute/wavefront[k]`` ⊃
    ``execute/partition[k,core]`` spans (p2p ones none: a partition may be
    suspended part-way).

    Raises :class:`ExecutionError` with the (core, vertex, dependence)
    context when a barrier schedule runs a vertex before a dependence, when
    no core can move while vertices remain (a p2p deadlock: the lowest
    blocked core is named), or — with ``__cause__`` set — when
    ``process_vertex`` (or an armed ``executor.worker`` fault) raises.
    """
    if cost is None:
        cost = np.ones(schedule.n, dtype=np.float64)
    schedule = bind_dynamic_partitions(schedule, cost)
    p = int(schedule.part_core.max(initial=0)) + 1
    order, ptr = schedule.order.tolist(), schedule.part_ptr.tolist()
    # plan[k][core]: the partitions (vertex lists) core runs in level k
    plan: List[List[List[List[int]]]] = [[[] for _ in range(p)] for _ in range(schedule.n_levels)]
    for j, (k, core) in enumerate(zip(schedule.partition_level().tolist(),
                                      schedule.part_core.tolist())):
        plan[k][core % p].append(order[ptr[j] : ptr[j + 1]])
    in_ptr, in_idx = g.in_ptr.tolist(), g.in_idx.tolist()
    done = [False] * schedule.n
    clock = timeline.clock if timeline is not None else None

    def unmet(v: int) -> int:
        """The first in-edge of ``v`` that is not done, or -1."""
        return next((u for u in in_idx[in_ptr[v] : in_ptr[v + 1]] if not done[u]), -1)

    def run(core: int, v: int, level: int) -> None:
        t0 = clock() if clock is not None else 0.0
        try:
            fault_point("executor.worker", label=str(core))
            if process_vertex is not None:
                process_vertex(v)
        except Exception as exc:
            raise ExecutionError(
                f"core {core} failed at vertex {v}: {exc}", core=core, vertex=v
            ) from exc
        if clock is not None:
            timeline.record(core, "busy", t0, clock(), vertex=v, level=level)
        if trace is not None:
            trace.record("exec", core, v)
        done[v] = True

    if timeline is not None:
        timeline.open(p)
        timeline.wall_t0 = timeline.clock()
    if schedule.sync == "barrier":
        tracer = current_tracer()
        for k, level in enumerate(plan):
            arrived = [0.0] * p
            with tracer.span(f"execute/wavefront[{k}]", level=k, sync="barrier"):
                for core, parts in enumerate(level):
                    for vertices in parts:
                        with tracer.span(f"execute/partition[{k},{core}]", level=k,
                                         core=core, n_vertices=len(vertices)):
                            for v in vertices:
                                u = unmet(v)
                                if u >= 0:
                                    raise ExecutionError(
                                        f"core {core}: vertex {v} scheduled before "
                                        f"dependence {u}",
                                        core=core, vertex=v, dependence=u,
                                    )
                                run(core, v, k)
                    if clock is not None:
                        arrived[core] = clock()
            # every core has arrived: the barrier closing level k releases
            released = clock() if clock is not None else 0.0
            for core in range(p):
                if clock is not None:
                    timeline.record(core, "barrier_wait", arrived[core], released, level=k)
                if trace is not None:
                    trace.record("barrier", core, k)
    else:
        programs = [[(v, k) for k, level in enumerate(plan) for part in level[core] for v in part]
                    for core in range(p)]
        pos = [0] * p
        # per core: (t0, dependence) of the p2p wait it is blocked in
        waiting: List[Optional[Tuple[float, int]]] = [None] * p
        while True:
            moved, blocked = False, None
            for core, program in enumerate(programs):
                i = pos[core]
                while i < len(program):
                    v, k = program[i]
                    u = unmet(v)
                    if clock is not None:
                        w = waiting[core]
                        if w is not None and w[1] != u:  # resumed, or moved on
                            timeline.record(core, "p2p_wait", w[0], clock(),
                                            vertex=v, dependence=w[1])
                            w = waiting[core] = None
                        if w is None and u >= 0:
                            waiting[core] = (clock(), u)
                    if u >= 0:
                        blocked = blocked or (core, v, u)
                        break
                    if trace is not None:
                        for d in in_idx[in_ptr[v] : in_ptr[v + 1]]:
                            trace.record("acquire", core, d)
                    run(core, v, k)
                    i += 1
                moved = moved or i != pos[core]
                pos[core] = i
            if blocked is None:
                break
            if not moved:
                core, v, u = blocked
                raise ExecutionError(
                    f"deadlock: core {core} blocked at vertex {v} on dependence {u}, "
                    f"which no core can run ({sum(done)}/{schedule.n} vertices done)",
                    core=core, vertex=v, dependence=u,
                )
    if timeline is not None:
        timeline.wall_t1 = timeline.clock()
    if not all(done):
        missing = [v for v, d in enumerate(done) if not d][:5]
        raise ExecutionError(f"vertices never executed: {missing}")
