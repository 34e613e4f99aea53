"""Discrete-event execution simulator: the paper's testbed substitute.

Given a schedule, the kernel's dependence DAG, per-iteration costs, and the
kernel's :class:`~repro.kernels.memory.MemoryModel`, the simulator produces
exactly the quantities the paper measures on hardware (Section V-A):

* **runtime** — the makespan in model cycles, from which speedups are
  computed;
* **locality** — average memory access latency from the coherence-aware
  memory model below;
* **load balance** — per-core busy cycles, from which the measured
  potential gain ``PG = 1 - mean/max`` is derived (Section IV-D);
* **synchronisation** — global-barrier and point-to-point counts plus the
  cycles they cost.

Memory model
------------
Two access classes per iteration ``v`` (see :mod:`repro.kernels.memory`):

* *streaming* — ``stream_lines[v]`` cold lines (own row of the operand):
  always miss; identical for every scheduler.
* *dependence* — for each DAG edge ``u -> v``, ``edge_lines[e]`` lines of
  data produced by ``u``.  A **hit** requires (a) ``u`` and ``v`` on the
  same core — on any other core the data arrives via the coherence fabric,
  a miss regardless of capacity — and (b) fewer than
  ``machine.cache_lines_per_core`` lines accessed on that core in between
  (LRU eviction window).  This is the paper's central locality mechanism:
  only executing dependent iterations on the same core, soon after one
  another, turns their data reuse into cache hits.

Timing model
------------
A vertex costs ``cost[v] * cycles_per_cost_unit`` compute cycles plus the
latency of all its accesses.  Width-partitions run their vertices back to
back on their core.

``sync="barrier"``: a level ends when its slowest core finishes; a barrier
(``machine.barrier_cycles``) separates consecutive levels.

``sync="p2p"``: partitions are the synchronisation granularity (SpMP groups
/ DAGP parts).  A partition starts at ``max(core clock, finish of every
cross-partition dependence (+sync cost when cross-core))``; cores never
wait at level boundaries, reproducing SpMP's overlap (Figure 1(b)).

Fine-grained schedules (HDagg with bin packing disabled) are *bound* first:
within each level, partitions are LPT-assigned to the least-loaded core —
what a work-stealing OpenMP runtime achieves — then simulated as usual.

Cost
----
The simulator costs about as much as its sorts.  The memory model ranks
vertices by (core, position, id) and sorts edges by the one integer key
``src * n + vrank[dst]``; out-edges are stored in ascending ``dst``, so
the ``vrank`` id tie-break decides which consumer's reuse hits when two
consumers share an access position.  The p2p dependence pairs are one
sort of the 1-D keys ``dst_pid * n_parts + src_pid``, repeats dropped.
The p2p clock recurrence is sequential and runs on Python lists and
floats; a partition's blocking dependence is the first latest one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import add
from typing import List, Optional

import numpy as np

from ..core.schedule import Schedule, ptr_from_counts
from ..graph.dag import DAG, gather_slices
from ..kernels.memory import MemoryModel
from ..observability.timeline import CoreTimeline, TimelineRecorder
from ..sparse.csr import INDEX_DTYPE
from .machine import MachineConfig

__all__ = ["SimulationResult", "simulate", "bind_dynamic_partitions"]


@dataclass
class SimulationResult:
    """Everything the metrics layer needs from one simulated execution."""

    algorithm: str
    machine: str
    makespan_cycles: float
    core_busy_cycles: np.ndarray
    hits: int
    misses: int
    n_barriers: int
    n_p2p_syncs: int
    sync_cycles: float
    hit_cycles: float = 4.0
    miss_cycles: float = 150.0
    #: Per-level spans (slowest core per coarsened wavefront) for barrier
    #: schedules; empty for p2p schedules (no level boundaries at run time).
    level_spans: list = None
    #: Deterministic per-core model timeline (``CoreTimeline`` in cycles)
    #: when ``simulate(..., collect_timeline=True)``; ``None`` otherwise.
    timeline: Optional[CoreTimeline] = None

    @property
    def total_accesses(self) -> int:
        return self.hits + self.misses

    @property
    def memory_cycles(self) -> float:
        return self.hit_cycles * self.hits + self.miss_cycles * self.misses

    @property
    def avg_memory_access_latency(self) -> float:
        """The paper's locality metric (lower is better)."""
        if self.total_accesses == 0:
            return 0.0
        return self.memory_cycles / self.total_accesses

    @property
    def potential_gain(self) -> float:
        """Measured PG: ``1 - mean(busy) / max(busy)`` over cores (Section IV-D)."""
        busy = self.core_busy_cycles
        mx = float(busy.max()) if busy.size else 0.0
        if mx <= 0.0:
            return 0.0
        return 1.0 - float(busy.mean()) / mx

    @property
    def hit_rate(self) -> float:
        return self.hits / self.total_accesses if self.total_accesses else 0.0


def bind_dynamic_partitions(schedule: Schedule, cost: np.ndarray) -> Schedule:
    """Assign ``core = -1`` partitions to concrete cores per level.

    Models what an OpenMP dynamic-scheduling runtime achieves on HDagg's
    fine-grained tasks: tasks are claimed roughly in submission order
    (smallest-id first — the inspector's spatial-locality order), so each
    core ends up with a *contiguous* cost-balanced run of tasks.  Static
    partitions keep their cores and lead their level; dynamic ones follow
    in submission order and fill the remaining capacity.  Returns a new
    schedule (or the original when nothing is dynamic).
    """
    if np.all(schedule.part_core >= 0):
        return schedule
    cost = np.asarray(cost, dtype=np.float64)
    p = schedule.n_cores
    costs = schedule.partition_costs(cost)
    first = schedule.order[schedule.part_ptr[:-1]]
    lp = schedule.level_ptr.tolist()
    perm: List[int] = []
    new_core = schedule.part_core.copy()
    for k in range(schedule.n_levels):
        here = np.arange(lp[k], lp[k + 1])
        static = here[schedule.part_core[here] >= 0].tolist()
        # submission order: smallest member id first
        dynamic = here[schedule.part_core[here] < 0]
        dynamic = dynamic[np.argsort(first[dynamic], kind="stable")].tolist()
        loads = np.zeros(p, dtype=np.float64)
        for j in static:
            loads[schedule.part_core[j] % p] += costs[j]
        if dynamic:
            w = np.array([costs[j] for j in dynamic])
            target = (float(w.sum()) + float(loads.sum())) / p
            core = 0
            for j, wj in zip(dynamic, w):
                # advance to the next core once this one is full
                while core < p - 1 and loads[core] >= target:
                    core += 1
                loads[core] += wj
                new_core[j] = core
        perm.extend(static + dynamic)
    parts = np.asarray(perm, dtype=INDEX_DTYPE)
    return replace(
        schedule,
        order=gather_slices(schedule.part_ptr, schedule.order, parts),
        part_ptr=ptr_from_counts(np.diff(schedule.part_ptr)[parts]),
        part_core=new_core[parts],
        meta=dict(schedule.meta, bound_dynamic=True),
    )


def _memory_cycles(
    schedule: Schedule,
    g: DAG,
    memory: MemoryModel,
    machine: MachineConfig,
) -> tuple[np.ndarray, int, int, float]:
    """Per-vertex memory cycles under the coherence-aware model.

    Returns ``(mem_cycles, hits, misses, effective_miss_cycles)`` — the
    last reflects optional bandwidth contention.
    """
    n = schedule.n
    p = machine.n_cores
    verts_all, part_ptr = schedule.order, schedule.part_ptr
    vert_core = np.repeat(schedule.part_core % p, np.diff(part_ptr))
    core = np.zeros(n, dtype=INDEX_DTYPE)
    core[verts_all] = vert_core
    # optional bandwidth model: misses slow down with concurrently active
    # cores (docs/MODEL.md); active count approximated by the schedule's
    # mean level width
    miss_cycles = machine.miss_cycles
    if machine.bandwidth_contention > 0.0 and schedule.n_levels:
        widths = np.diff(schedule.level_ptr)
        widths = widths[widths > 0]
        active = float(np.mean(widths)) if widths.size else 1.0
        miss_cycles = machine.miss_cycles * (
            1.0 + machine.bandwidth_contention * max(0.0, active - 1.0)
        )

    # Per-vertex access volume (stream + incoming dependence lines), then
    # per-core cumulative access position in execution order.  One stable
    # sort by core keeps each core's vertices in schedule order; the cumsum
    # then runs per contiguous core segment (identical accumulation order
    # to a per-core gather, without re-walking the schedule per core).
    src, dst = g.edge_list()
    acc = memory.stream_lines.astype(np.float64).copy()
    if src.size:
        np.add.at(acc, dst, memory.edge_lines)
    position = np.zeros(n, dtype=np.float64)  # end-of-vertex access offset on its core
    if verts_all.size:
        exec_order = np.argsort(vert_core, kind="stable")
        sv = verts_all[exec_order]
        sc = vert_core[exec_order]
        acc_sv = acc[sv]
        seg = np.concatenate(
            (
                np.zeros(1, dtype=np.int64),
                np.flatnonzero(sc[1:] != sc[:-1]) + 1,
                np.asarray([sv.shape[0]], dtype=np.int64),
            )
        )
        for a, b in zip(seg[:-1].tolist(), seg[1:].tolist()):
            position[sv[a:b]] = np.cumsum(acc_sv[a:b])

    hits_lines = 0.0
    miss_lines = float(memory.stream_lines.sum())
    mem_cycles = memory.stream_lines * miss_cycles
    if src.size:
        cap = machine.cache_lines_per_core
        # Two ways an edge u -> v hits in v's core cache:
        #   producer reuse — u itself ran on v's core within the window;
        #   consumer reuse — an earlier consumer of u's data ran on v's
        #   core within the window (the data is already resident no matter
        #   where u ran).  Sorted-by-id width-partitions exploit the second
        #   heavily: adjacent rows share dependence sources.
        # Group edges by (source, consumer core) in consumer execution
        # order; the first edge of each group uses the producer rule, the
        # rest chain off the previous consumer.  ``vrank`` ranks vertices by
        # (core, position, id), so the one integer key ``src * n + vrank``
        # sorts edges by (src, consumer core, consumer position) with ties
        # broken by ``dst``, the order out-edges are stored in per source;
        # a position tie (a vertex with no stream and no incoming edge
        # lines) thus chains consumer reuse in ascending ``dst``.
        vrank = np.empty(n, dtype=np.int64)
        vrank[np.lexsort((position, core))] = np.arange(n, dtype=np.int64)
        order = np.argsort(src * n + vrank[dst])
        s_o, d_o = src[order], dst[order]
        c_d, pos_d = core[d_o], position[d_o]
        first = np.ones(order.shape[0], dtype=bool)
        first[1:] = (s_o[1:] != s_o[:-1]) | (c_d[1:] != c_d[:-1])
        prev_pos = np.empty(order.shape[0], dtype=np.float64)
        prev_pos[0] = 0.0
        prev_pos[1:] = pos_d[:-1]
        producer_hit = first & (core[s_o] == c_d) & (pos_d - position[s_o] <= cap)
        consumer_hit = ~first & (pos_d - prev_pos <= cap)
        hit_sorted = producer_hit | consumer_hit
        hit = np.empty_like(hit_sorted)
        hit[order] = hit_sorted
        lat = np.where(hit, machine.hit_cycles, miss_cycles)
        np.add.at(mem_cycles, dst, memory.edge_lines * lat)
        hits_lines = float(memory.edge_lines[hit].sum())
        miss_lines += float(memory.edge_lines[~hit].sum())
    return mem_cycles, int(round(hits_lines)), int(round(miss_lines)), miss_cycles


def _p2p_dependencies(schedule: Schedule, g: DAG) -> tuple[np.ndarray, np.ndarray]:
    """Unique cross-partition dependence pairs ``(src_pid, dst_pid)``.

    The pairs come sorted by ``dst_pid``, then ``src_pid``: one sort of the
    1-D keys ``dst_pid * n_parts + src_pid``, duplicates dropped.
    """
    pid = schedule.partition_of()
    n_parts = schedule.n_partitions
    src, dst = g.edge_list()
    ps, pd = pid[src], pid[dst]
    cross = ps != pd
    keys = np.sort(pd[cross] * n_parts + ps[cross])
    if keys.size:
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    return keys % n_parts, keys // n_parts


def simulate(
    schedule: Schedule,
    g: DAG,
    cost: np.ndarray,
    memory: MemoryModel,
    machine: MachineConfig,
    *,
    collect_timeline: bool = False,
) -> SimulationResult:
    """Simulate one schedule on one machine model; see module docstring.

    With ``collect_timeline=True`` the result additionally carries a
    deterministic :class:`~repro.observability.timeline.CoreTimeline` in
    model cycles — per-partition ``busy`` segments, ``barrier_wait`` for
    early finishers and barrier crossings, ``p2p_wait`` attributed to the
    blocking dependence — consistent with ``core_busy_cycles`` and
    ``makespan_cycles`` by construction.
    """
    cost = np.asarray(cost, dtype=np.float64)
    memory.validate(g)
    schedule = bind_dynamic_partitions(schedule, cost)
    p = machine.n_cores

    verts_all, part_ptr, part_core = schedule.order, schedule.part_ptr, schedule.part_core
    part_level = schedule.partition_level()
    n_parts = part_core.shape[0]

    mem_cycles, hits, misses, effective_miss = _memory_cycles(schedule, g, memory, machine)
    exec_cycles = cost * machine.cycles_per_cost_unit + mem_cycles

    # Per-partition execution cycles in one pass (prefix sums over the
    # flattened vertex array) — both sync modes consume these.
    ecs = np.concatenate((np.zeros(1, dtype=np.float64), np.cumsum(exec_cycles[verts_all])))
    w_part = ecs[part_ptr[1:]] - ecs[part_ptr[:-1]]
    part_core_mod = part_core % p

    busy = np.zeros(p, dtype=np.float64)
    n_p2p = 0
    sync_cycles = 0.0
    recorder = None
    if collect_timeline:
        recorder = TimelineRecorder()
        recorder.open(p)

    level_spans: list = []
    if schedule.sync == "barrier":
        # Batched per-level accounting: scatter partition cycles into a
        # (level, core) grid, then reduce — no per-partition Python work.
        n_levels = schedule.n_levels
        if n_parts:
            loads2d = np.bincount(
                part_level * p + part_core_mod,
                weights=w_part,
                minlength=n_levels * p,
            ).reshape(n_levels, p)
            nonempty = np.flatnonzero(np.bincount(part_level, minlength=n_levels))
            busy = loads2d.sum(axis=0)
            spans = loads2d[nonempty].max(axis=1)
            level_spans = [float(s) for s in spans]
            makespan = float(spans.sum())
            n_levels_nonempty = int(nonempty.shape[0])
        else:
            makespan = 0.0
            n_levels_nonempty = 0
        n_barriers = max(0, n_levels_nonempty - 1)
        sync_cycles = n_barriers * machine.barrier_cycles
        makespan += sync_cycles
        if recorder is not None and n_parts:
            # timeline pass (off the vectorized path, opt-in only): replay
            # the same level accounting into per-partition segments
            ne = nonempty.tolist()
            level_start = {}
            t = 0.0
            for i, lvl in enumerate(ne):
                level_start[lvl] = t
                t += float(spans[i])
                if i < len(ne) - 1:
                    t += machine.barrier_cycles
            cursors: dict = {}
            for k in range(n_parts):
                lvl = int(part_level[k])
                c = int(part_core_mod[k])
                w = float(w_part[k])
                cur = cursors.setdefault((lvl, c), level_start[lvl])
                if w > 0.0:
                    recorder.record(
                        c, "busy", cur, cur + w,
                        vertex=int(verts_all[part_ptr[k]]), level=lvl,
                    )
                cursors[(lvl, c)] = cur + w
            for i, lvl in enumerate(ne):
                end = level_start[lvl] + float(spans[i])
                for c in range(p):
                    fin = cursors.get((lvl, c), level_start[lvl])
                    if end > fin:  # early finisher stalls at the barrier
                        recorder.record(c, "barrier_wait", fin, end, level=lvl)
                if i < len(ne) - 1 and machine.barrier_cycles > 0.0:
                    for c in range(p):
                        recorder.record(
                            c, "barrier_wait", end, end + machine.barrier_cycles,
                            level=lvl,
                        )
        if recorder is not None:
            recorder.wall_t0, recorder.wall_t1 = 0.0, makespan
    else:  # p2p
        n_barriers = 0
        dep_src, dep_dst = _p2p_dependencies(schedule, g)
        dep_ptr = np.zeros(n_parts + 1, dtype=INDEX_DTYPE)
        np.cumsum(np.bincount(dep_dst, minlength=n_parts), out=dep_ptr[1:])
        cross = part_core_mod[dep_src] != part_core_mod[dep_dst]
        n_p2p = int(np.count_nonzero(cross))
        n_cross_list = np.bincount(dep_dst[cross], minlength=n_parts).tolist()
        lag_list = np.where(cross, machine.p2p_sync_cycles, 0.0).tolist()

        # The clock recurrence is inherently sequential (a partition's start
        # depends on earlier finishes), so it runs on Python floats and
        # lists, without per-step NumPy call overhead.  A dependence is
        # ready at its finish plus the sync cost when it ran on another
        # core; dependences come in ascending source order, and the first
        # latest one is the blocking dependence.
        finish = [0.0] * n_parts
        clock = [0.0] * p
        busy_list = [0.0] * p
        w_list = w_part.tolist()
        core_list = part_core_mod.tolist()
        dep_ptr_list = dep_ptr.tolist()
        deps_list = dep_src.tolist()
        if recorder is not None:
            head = verts_all[part_ptr[:-1]].tolist()
        for k in range(n_parts):
            c = core_list[k]
            w = w_list[k]
            start = clock[c]
            lo, hi = dep_ptr_list[k], dep_ptr_list[k + 1]
            if lo < hi:
                sync_cycles += machine.p2p_sync_cycles * n_cross_list[k]
                ready = list(map(add, map(finish.__getitem__, deps_list[lo:hi]), lag_list[lo:hi]))
                dep_max = max(ready)
                if dep_max > start:
                    if recorder is not None:  # stalled on the blocking dependence
                        blocking = deps_list[lo + ready.index(dep_max)]
                        recorder.record(
                            c, "p2p_wait", start, dep_max,
                            vertex=head[k], dependence=head[blocking],
                        )
                    start = dep_max
            if recorder is not None and w > 0.0:
                recorder.record(c, "busy", start, start + w, vertex=head[k])
            finish[k] = clock[c] = start + w
            busy_list[c] += w
        busy = np.array(busy_list, dtype=np.float64)
        makespan = max(clock) if n_parts else 0.0
        if recorder is not None:
            recorder.wall_t0, recorder.wall_t1 = 0.0, makespan

    return SimulationResult(
        algorithm=schedule.algorithm,
        machine=machine.name,
        makespan_cycles=makespan,
        core_busy_cycles=busy,
        hits=hits,
        misses=misses,
        n_barriers=n_barriers,
        n_p2p_syncs=n_p2p,
        sync_cycles=sync_cycles,
        hit_cycles=machine.hit_cycles,
        miss_cycles=effective_miss,
        level_spans=level_spans,
        timeline=recorder.finalize() if recorder is not None else None,
    )
