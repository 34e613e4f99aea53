"""The simulator against the sorts and the clock loop it replaced.

The memory model sorts edges by one integer key (``src * n + vrank``),
``_p2p_dependencies`` sorts the 1-D pair keys and drops repeats, and the
p2p clock recurrence runs on Python lists.  These tests pin every
:class:`SimulationResult` field ``==`` to test-local copies of the former
bodies (a three-key ``np.lexsort``, a 2-D ``np.unique`` over stacked pairs,
and a per-partition NumPy gather):

* on the suite matrices (a subset per family by default, all 34 with
  ``REPRO_DIFF_FULL=1``) × three kernels × every registered scheduler, on
  the 20-core machine and its 1-core scaling, with and without a timeline;
* on random DAGs whose memory model gives some or all vertices no stream
  or edge lines, so they share an access position on their core and the
  edge sort meets ties (and one hand-made case where the tie order decides
  a hit).
"""

import dataclasses
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schedule import Schedule
from repro.graph import DAG
from repro.kernels.memory import MemoryModel
from repro.observability.timeline import TimelineRecorder
from repro.runtime import simulator
from repro.runtime.machine import INTEL20
from repro.runtime.simulator import SimulationResult, bind_dynamic_partitions, simulate
from repro.schedulers import SCHEDULERS
from repro.sparse.csr import INDEX_DTYPE
from repro.suite import SUITE
from repro.suite.harness import build_cell

MACHINES = (INTEL20, INTEL20.scaled(1))
KERNEL_NAMES = ("sptrsv", "spic0", "spilu0")

#: one or two small matrices per family, as in the scheduler oracles
_SUBSET = [
    "mesh2d-s",
    "mesh3d-s",
    "band-dense",
    "rand-dense",
    "blocks-few",
    "arrow-many",
    "kite-small",
    "kite-wide",
]
MATRICES = [s.name for s in SUITE] if os.environ.get("REPRO_DIFF_FULL") else _SUBSET


# ----------------------------------------------------------------------
# the former bodies
# ----------------------------------------------------------------------
def memory_cycles_oracle(schedule, g, memory, machine):
    """``_memory_cycles`` with the three-key lexsort over all edges."""
    n = schedule.n
    p = machine.n_cores
    verts_all, part_ptr = schedule.order, schedule.part_ptr
    vert_core = np.repeat(schedule.part_core % p, np.diff(part_ptr))
    core = np.zeros(n, dtype=INDEX_DTYPE)
    core[verts_all] = vert_core
    miss_cycles = machine.miss_cycles
    if machine.bandwidth_contention > 0.0 and schedule.n_levels:
        widths = np.diff(schedule.level_ptr)
        widths = widths[widths > 0]
        active = float(np.mean(widths)) if widths.size else 1.0
        miss_cycles = machine.miss_cycles * (
            1.0 + machine.bandwidth_contention * max(0.0, active - 1.0)
        )
    src, dst = g.edge_list()
    acc = memory.stream_lines.astype(np.float64).copy()
    if src.size:
        np.add.at(acc, dst, memory.edge_lines)
    position = np.zeros(n, dtype=np.float64)
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
        order = np.lexsort((position[dst], core[dst], src))
        s_o, d_o = src[order], dst[order]
        first = np.ones(order.shape[0], dtype=bool)
        first[1:] = (s_o[1:] != s_o[:-1]) | (core[d_o[1:]] != core[d_o[:-1]])
        prev_pos = np.empty(order.shape[0], dtype=np.float64)
        prev_pos[0] = 0.0
        prev_pos[1:] = position[d_o[:-1]]
        producer_hit = first & (core[s_o] == core[d_o]) & (
            position[d_o] - position[s_o] <= cap
        )
        consumer_hit = ~first & (position[d_o] - prev_pos <= cap)
        hit_sorted = producer_hit | consumer_hit
        hit = np.empty_like(hit_sorted)
        hit[order] = hit_sorted
        lat = np.where(hit, machine.hit_cycles, miss_cycles)
        np.add.at(mem_cycles, dst, memory.edge_lines * lat)
        hits_lines = float(memory.edge_lines[hit].sum())
        miss_lines += float(memory.edge_lines[~hit].sum())
    return mem_cycles, int(round(hits_lines)), int(round(miss_lines)), miss_cycles


def p2p_dependencies_oracle(schedule, g):
    """``_p2p_dependencies`` with the 2-D ``np.unique`` over stacked pairs."""
    pid = schedule.partition_of()
    src, dst = g.edge_list()
    ps, pd = pid[src], pid[dst]
    cross = ps != pd
    if not np.any(cross):
        return np.empty(0, dtype=INDEX_DTYPE), np.empty(0, dtype=INDEX_DTYPE)
    pairs = np.unique(np.stack([ps[cross], pd[cross]], axis=1), axis=0)
    return np.ascontiguousarray(pairs[:, 0]), np.ascontiguousarray(pairs[:, 1])


def p2p_simulate_oracle(schedule, g, cost, memory, machine, collect_timeline):
    """``simulate`` on a p2p schedule with the per-partition NumPy loop."""
    cost = np.asarray(cost, dtype=np.float64)
    schedule = bind_dynamic_partitions(schedule, cost)
    p = machine.n_cores
    verts_all, part_ptr, part_core = schedule.order, schedule.part_ptr, schedule.part_core
    n_parts = part_core.shape[0]
    mem_cycles, hits, misses, effective_miss = memory_cycles_oracle(
        schedule, g, memory, machine
    )
    exec_cycles = cost * machine.cycles_per_cost_unit + mem_cycles
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
    dep_src, dep_dst = p2p_dependencies_oracle(schedule, g)
    dep_ptr = np.zeros(n_parts + 1, dtype=INDEX_DTYPE)
    np.cumsum(np.bincount(dep_dst, minlength=n_parts), out=dep_ptr[1:])
    order = np.argsort(dep_dst, kind="stable")
    dep_src_sorted = dep_src[order]
    finish = np.zeros(n_parts, dtype=np.float64)
    core_clock = np.zeros(p, dtype=np.float64)
    w_list = w_part.tolist()
    core_list = part_core_mod.tolist()
    dep_ptr_list = dep_ptr.tolist()
    for k in range(n_parts):
        c = core_list[k]
        w = w_list[k]
        deps = dep_src_sorted[dep_ptr_list[k] : dep_ptr_list[k + 1]]
        start = core_clock[c]
        blocking = -1
        if deps.size:
            cross_core = part_core_mod[deps] != c
            n_cross = int(np.count_nonzero(cross_core))
            n_p2p += n_cross
            sync_cycles += machine.p2p_sync_cycles * n_cross
            dep_finish = finish[deps] + np.where(cross_core, machine.p2p_sync_cycles, 0.0)
            dep_max = float(dep_finish.max())
            if recorder is not None and dep_max > start:
                blocking = int(deps[int(np.argmax(dep_finish))])
            start = max(start, dep_max)
        if recorder is not None:
            if start > core_clock[c]:
                recorder.record(
                    c, "p2p_wait", float(core_clock[c]), start,
                    vertex=int(verts_all[part_ptr[k]]),
                    dependence=int(verts_all[part_ptr[blocking]]) if blocking >= 0 else -1,
                )
            if w > 0.0:
                recorder.record(
                    c, "busy", start, start + w, vertex=int(verts_all[part_ptr[k]])
                )
        finish[k] = start + w
        core_clock[c] = finish[k]
        busy[c] += w
    makespan = float(core_clock.max()) if n_parts else 0.0
    if recorder is not None:
        recorder.wall_t0, recorder.wall_t1 = 0.0, makespan
    return SimulationResult(
        algorithm=schedule.algorithm,
        machine=machine.name,
        makespan_cycles=makespan,
        core_busy_cycles=busy,
        hits=hits,
        misses=misses,
        n_barriers=0,
        n_p2p_syncs=n_p2p,
        sync_cycles=sync_cycles,
        hit_cycles=machine.hit_cycles,
        miss_cycles=effective_miss,
        level_spans=[],
        timeline=recorder.finalize() if recorder is not None else None,
    )


def simulate_oracle(schedule, g, cost, memory, machine, *, collect_timeline=False):
    if schedule.sync == "p2p":
        return p2p_simulate_oracle(schedule, g, cost, memory, machine, collect_timeline)
    # the barrier accounting is unchanged; only its memory model is former
    with mock.patch.object(simulator, "_memory_cycles", memory_cycles_oracle):
        return simulate(schedule, g, cost, memory, machine, collect_timeline=collect_timeline)


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------
def assert_same_result(got: SimulationResult, want: SimulationResult, label) -> None:
    for f in dataclasses.fields(SimulationResult):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), (label, f.name)
        else:
            assert a == b, (label, f.name)


def check_everywhere(schedule, g, cost, memory, label) -> None:
    for machine in MACHINES:
        for timeline in (False, True):
            got = simulate(schedule, g, cost, memory, machine, collect_timeline=timeline)
            want = simulate_oracle(
                schedule, g, cost, memory, machine, collect_timeline=timeline
            )
            assert_same_result(got, want, (label, machine.name, timeline))


# ----------------------------------------------------------------------
# suite differential
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel", KERNEL_NAMES)
@pytest.mark.parametrize("matrix", MATRICES)
def test_suite_results_match_the_former_simulator(matrix, kernel):
    cell = build_cell(matrix, kernel=kernel, machine="intel20")
    g, cost, memory = cell.dag, cell.cost, cell.memory
    for name in SCHEDULERS:
        schedule = SCHEDULERS[name](g, cost, INTEL20.n_cores)
        check_everywhere(schedule, g, cost, memory, (matrix, kernel, name))


# ----------------------------------------------------------------------
# position ties
# ----------------------------------------------------------------------
@st.composite
def tied_cases(draw):
    """A random DAG, a random p2p or barrier schedule, and silent vertices."""
    n = draw(st.integers(min_value=1, max_value=12))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = DAG.from_edges(
        n, [u for (u, _), k in zip(pairs, keep) if k], [v for (_, v), k in zip(pairs, keep) if k]
    )
    # partitions are runs of consecutive ids (id order is topological), each
    # on a random core or dynamic (-1); a barrier schedule puts every
    # partition in its own level, a p2p schedule keeps them all in one
    cuts = sorted(set(draw(st.lists(st.integers(1, max(1, n - 1)), max_size=n))) - {n})
    bounds = [0] + cuts + [n]
    cores = draw(st.lists(st.integers(-1, 2), min_size=len(bounds) - 1,
                          max_size=len(bounds) - 1))
    sync = draw(st.sampled_from(["p2p", "barrier"]))
    parts = [(c, list(range(lo, hi))) for c, lo, hi in zip(cores, bounds, bounds[1:])]
    levels = [[part] for part in parts] if sync == "barrier" else [parts]
    schedule = Schedule.from_partitions(
        n, levels, sync=sync, algorithm="random", n_cores=3
    )
    cost = np.asarray(draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)),
                      dtype=np.float64)
    # "silent" vertices stream nothing and take no lines over their in-edges,
    # so each ends at the access position of the vertex before it on its
    # core; either every vertex is silent or a random subset is
    if draw(st.booleans()):
        silent = np.ones(n, dtype=bool)
    else:
        silent = np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    _, dst = g.edge_list()
    memory = MemoryModel(
        stream_lines=np.where(silent, 0.0, 1.0), edge_lines=np.where(silent[dst], 0.0, 1.0)
    )
    return schedule, g, cost, memory


@settings(max_examples=200, deadline=None)
@given(tied_cases())
def test_position_ties_match_the_former_simulator(case):
    schedule, g, cost, memory = case
    check_everywhere(schedule, g, cost, memory, "ties")


def test_tied_consumers_are_taken_in_id_order():
    """Vertex 0 feeds 1 and 2 on another core; 2 adds no lines, so both end
    at access position 2.  In id order the edge into 1 comes first and
    misses (its data crosses cores); the edge into 2 then hits, but moves
    no lines.  The other order would turn the edge into 1 into a hit."""
    g = DAG.from_edges(3, [0, 0], [1, 2])
    schedule = Schedule.from_partitions(
        3, [[(0, [0])], [(1, [1, 2])]], sync="barrier", algorithm="hand", n_cores=2
    )
    memory = MemoryModel(
        stream_lines=np.array([1.0, 1.0, 0.0]), edge_lines=np.array([1.0, 0.0])
    )
    cost = np.ones(3)
    got = simulate(schedule, g, cost, memory, INTEL20)
    assert (got.hits, got.misses) == (0, 3)
    check_everywhere(schedule, g, cost, memory, "hand")
