"""Threaded executor: real concurrent schedule execution.

The paper's executor is OpenMP; this is the closest Python equivalent — one
worker thread per core, each executing its width-partitions in level order
with a :class:`threading.Barrier` between coarsened wavefronts (barrier
sync) or per-vertex completion flags (p2p sync).  CPython's GIL serialises
the numeric work, so this executor demonstrates *correctness under true
concurrency* (no dependence ordering is enforced by the interpreter — only
by the schedule and its synchronisation), not speedup; the performance
claims live in :mod:`repro.runtime.simulator`.

The p2p path spins on a shared ``done`` flag array exactly like SpMP's
point-to-point synchronisation; the barrier path mirrors the wavefront /
HDagg executors.  Any kernel-level dependence violation would surface as a
read of a not-yet-written value and fail the numeric comparison in tests;
additionally each vertex's dependences are checked against the flags.

Failures carry context: :class:`ThreadedExecutionError` names the core and
vertex (and, for dependence problems, the unmet dependence) so a refuted
run is debuggable without re-execution.  A p2p spin that stops making
global progress raises a *deadlock* error naming the stuck (core, vertex,
dependence) triple instead of hanging the process.

Passing ``trace=`` (any object with a ``record(kind, core, arg)`` method,
canonically :class:`repro.analysis.tracecheck.TraceRecorder`) records the
happens-before event log — ``exec`` before the completion flag is
published, ``acquire`` after a p2p spin observes a flag, ``barrier`` after
each wavefront barrier — which
:func:`repro.analysis.tracecheck.check_trace` replays through vector
clocks to certify the ordering of the run itself.

Passing ``timeline=`` (a
:class:`repro.observability.TimelineRecorder`) collects the per-core
wall-clock timeline instead: ``busy`` per vertex, ``barrier_wait`` at each
level barrier, and ``p2p_wait`` carrying the ``(vertex, dependence)`` pair
a spin was blocked on — point-to-point wait attribution.  When the ambient
observability state is enabled (``hdagg-bench trace``), workers also emit
``execute/wavefront[k]`` / ``execute/partition[k,core]`` spans.  Both are
strictly opt-in; the dormant cost is one ``None``/attribute check per
guarded site.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..core.schedule import Schedule
from ..graph.dag import DAG
from ..observability.state import STATE as _OBS_STATE
from ..observability.timeline import TimelineRecorder
from ..resilience.faults import fault_point
from .simulator import bind_dynamic_partitions

__all__ = ["run_threaded", "ThreadedExecutionError"]

#: p2p spins between global-progress probes (keeps ``done.sum()`` off the
#: hot path while bounding deadlock-detection latency).
_PROBE_INTERVAL = 256

#: shared reusable no-op context manager for the disabled-tracer path
_NULL_CM = nullcontext()


class ThreadedExecutionError(RuntimeError):
    """A worker observed a dependence violation, deadlock, or peer failure.

    Attributes ``core``, ``vertex``, and ``dependence`` locate the failure
    (``None``/``-1`` where not applicable) so callers — the trace checker,
    CI harnesses — can report without parsing the message.
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


def run_threaded(
    schedule: Schedule,
    g: DAG,
    process_vertex: Callable[[int], None],
    *,
    cost: np.ndarray | None = None,
    spin_yield: bool = True,
    deadlock_timeout: float = 30.0,
    trace=None,
    timeline: Optional[TimelineRecorder] = None,
) -> None:
    """Execute ``process_vertex(v)`` for every vertex under the schedule.

    ``process_vertex`` must be thread-compatible in the way kernel row
    updates are: writes touch only vertex-owned state, reads touch state
    owned by dependences.  Dynamic (core = -1) partitions are bound first
    (requires ``cost``; unit costs assumed otherwise).

    Raises :class:`ThreadedExecutionError` — carrying the (core, vertex,
    dependence) context — if any worker observes an unsatisfied dependence,
    a p2p spin makes no global progress for ``deadlock_timeout`` seconds
    (an invalid p2p schedule would otherwise hang forever), or a worker
    raises.
    """
    if cost is None:
        cost = np.ones(schedule.n, dtype=np.float64)
    schedule = bind_dynamic_partitions(schedule, cost)
    p = int(schedule.part_core.max(initial=0)) + 1

    done = np.zeros(schedule.n, dtype=bool)
    #: (core, vertex, exception) triples collected from failed workers
    errors: List[Tuple[int, int, BaseException]] = []
    errors_lock = threading.Lock()
    barrier = threading.Barrier(p)
    in_ptr, in_idx = g.in_ptr, g.in_idx
    use_barrier = schedule.sync == "barrier"

    # per-core, per-level partition lists
    plan: List[List[List[np.ndarray]]] = [
        [[] for _ in range(p)] for _ in range(schedule.n_levels)
    ]
    ptr = schedule.part_ptr
    for j, (k, core) in enumerate(zip(schedule.partition_level().tolist(),
                                      schedule.part_core.tolist())):
        plan[k][core % p].append(schedule.order[ptr[j] : ptr[j + 1]])

    def wait_for(v: int, core: int) -> None:
        deps = in_idx[in_ptr[v] : in_ptr[v + 1]]
        for u in deps:
            if use_barrier:
                # with barrier sync, deps must already be done — anything
                # else is a schedule bug, not a timing matter
                if not done[u]:
                    raise ThreadedExecutionError(
                        f"core {core}: vertex {v} scheduled before dependence {int(u)}",
                        core=core,
                        vertex=v,
                        dependence=int(u),
                    )
            else:
                # p2p wait attribution: only an actual stall (flag not yet
                # published) opens a segment — satisfied deps cost nothing
                wait_t0 = (
                    timeline.clock() if timeline is not None and not done[u] else None
                )
                spins = 0
                stall_t0 = time.monotonic()
                stall_done = -1
                while not done[u]:  # SpMP-style spin on the flag
                    if errors:
                        raise ThreadedExecutionError(
                            f"core {core}: aborting vertex {v}, a peer worker failed",
                            core=core,
                            vertex=v,
                        )
                    spins += 1
                    if spins % _PROBE_INTERVAL == 0:
                        finished = int(done.sum())
                        now = time.monotonic()
                        if finished != stall_done:
                            stall_done, stall_t0 = finished, now
                        elif now - stall_t0 > deadlock_timeout:
                            raise ThreadedExecutionError(
                                f"deadlock: core {core} spent {deadlock_timeout:.1f}s "
                                f"waiting on dependence {int(u)} of vertex {v} "
                                f"({finished}/{schedule.n} vertices done)",
                                core=core,
                                vertex=v,
                                dependence=int(u),
                            )
                    if spin_yield:
                        threading.Event().wait(0)  # yield
                if wait_t0 is not None:
                    timeline.record(
                        core, "p2p_wait", wait_t0, timeline.clock(),
                        vertex=v, dependence=int(u),
                    )
                if trace is not None:
                    trace.record("acquire", core, int(u))

    def worker(core: int) -> None:
        current = -1
        tracer = _OBS_STATE.tracer if _OBS_STATE.enabled else None
        try:
            for k in range(len(plan)):
                wf_cm = (
                    tracer.span(f"execute/wavefront[{k}]", level=k, sync=schedule.sync)
                    if tracer is not None and core == 0
                    else _NULL_CM
                )
                with wf_cm:
                    for vertices in plan[k][core]:
                        part_cm = (
                            tracer.span(
                                f"execute/partition[{k},{core}]",
                                level=k, core=core,
                                n_vertices=int(vertices.shape[0]),
                            )
                            if tracer is not None
                            else _NULL_CM
                        )
                        with part_cm:
                            for v in vertices.tolist():
                                current = v
                                # chaos hooks: a targeted core can be stalled
                                # (the peers' p2p deadlock detector must then
                                # fire with the stuck triple) or crashed
                                fault_point("executor.stall", label=str(core))
                                fault_point("executor.worker", label=str(core))
                                wait_for(v, core)
                                busy_t0 = (
                                    timeline.clock() if timeline is not None else None
                                )
                                process_vertex(v)
                                if busy_t0 is not None:
                                    timeline.record(
                                        core, "busy", busy_t0, timeline.clock(),
                                        vertex=v, level=k,
                                    )
                                if trace is not None:
                                    # exec is recorded before the flag is
                                    # published so any observed flag implies a
                                    # logged exec event
                                    trace.record("exec", core, v)
                                done[v] = True
                if use_barrier:
                    barrier_t0 = timeline.clock() if timeline is not None else None
                    barrier.wait()
                    if barrier_t0 is not None:
                        timeline.record(
                            core, "barrier_wait", barrier_t0, timeline.clock(),
                            level=k,
                        )
                    if trace is not None:
                        trace.record("barrier", core, k)
        except BaseException as exc:  # propagate to the caller
            with errors_lock:
                errors.append((core, current, exc))
            if use_barrier:
                barrier.abort()

    threads = [threading.Thread(target=worker, args=(c,)) for c in range(p)]
    if timeline is not None:
        timeline.open(p)
        timeline.wall_t0 = timeline.clock()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if timeline is not None:
        timeline.wall_t1 = timeline.clock()
    if errors:
        core, vertex, first = errors[0]
        if isinstance(first, threading.BrokenBarrierError):
            core, vertex, first = next(
                (
                    (c, v, e)
                    for c, v, e in errors
                    if not isinstance(e, threading.BrokenBarrierError)
                ),
                errors[0],
            )
        if isinstance(first, ThreadedExecutionError):
            raise first
        raise ThreadedExecutionError(
            f"core {core} failed at vertex {vertex}: {first}",
            core=core,
            vertex=vertex,
        ) from first
    if not bool(done.all()):
        missing = np.nonzero(~done)[0][:5].tolist()
        raise ThreadedExecutionError(f"vertices never executed: {missing}")
