"""Focused tests on p2p timing details of the simulator."""

import numpy as np
import pytest

from repro.core.schedule import Schedule
from repro.graph import DAG
from repro.kernels import MemoryModel
from repro.runtime import MachineConfig, simulate


def machine(**kw):
    base = dict(name="t", n_cores=2, cache_lines_per_core=64,
                hit_cycles=1.0, miss_cycles=10.0, cycles_per_cost_unit=1.0,
                p2p_sync_cycles=7.0)
    base.update(kw)
    return MachineConfig(**base)


def mem_for(g):
    return MemoryModel(np.ones(g.n), np.ones(g.n_edges))


def test_same_core_dependence_needs_no_sync():
    g = DAG.from_edges(2, [0], [1])
    s = Schedule.from_partitions(
        n=2,
        levels=[[(0, np.array([0]))], [(0, np.array([1]))]],
        sync="p2p", algorithm="t", n_cores=2,
    )
    r = simulate(s, g, np.ones(2), mem_for(g), machine())
    assert r.n_p2p_syncs == 0
    assert r.sync_cycles == 0.0


def test_sync_charged_once_per_partition_pair():
    # two edges between the same pair of partitions: one sync
    g = DAG.from_edges(4, [0, 1], [2, 3])
    s = Schedule.from_partitions(
        n=4,
        levels=[
            [(0, np.array([0, 1]))],
            [(1, np.array([2, 3]))],
        ],
        sync="p2p", algorithm="t", n_cores=2,
    )
    r = simulate(s, g, np.ones(4), mem_for(g), machine())
    assert r.n_p2p_syncs == 1


def test_waiting_core_idles_not_busy():
    """Busy cycles exclude p2p wait time (PG measures work, not stalls)."""
    g = DAG.from_edges(2, [0], [1])
    s = Schedule.from_partitions(
        n=2,
        levels=[
            [(0, np.array([0]))],
            [(1, np.array([1]))],
        ],
        sync="p2p", algorithm="t", n_cores=2,
    )
    m = machine()
    r = simulate(s, g, np.array([100.0, 1.0]), mem_for(g), m)
    # core 1's busy time is only its own execution
    assert r.core_busy_cycles[1] < r.core_busy_cycles[0]
    assert r.makespan_cycles > r.core_busy_cycles.max()


def test_independent_chains_fully_overlap():
    g = DAG.from_edges(6, [0, 1, 2, 3], [2, 3, 4, 5])
    levels = [
        [(0, np.array([0])), (1, np.array([1]))],
        [(0, np.array([2])), (1, np.array([3]))],
        [(0, np.array([4])), (1, np.array([5]))],
    ]
    s = Schedule.from_partitions(n=6, levels=levels, sync="p2p", algorithm="t", n_cores=2)
    r = simulate(s, g, np.ones(6), mem_for(g), machine())
    # no cross-core deps at all: makespan == per-core chain length
    assert r.n_p2p_syncs == 0
    assert r.makespan_cycles == pytest.approx(float(r.core_busy_cycles.max()))


def test_p2p_dependency_chain_orders_finishes():
    """A zig-zag across cores serialises through sync costs."""
    g = DAG.from_edges(3, [0, 1], [1, 2])
    s = Schedule.from_partitions(
        n=3,
        levels=[
            [(0, np.array([0]))],
            [(1, np.array([1]))],
            [(0, np.array([2]))],
        ],
        sync="p2p", algorithm="t", n_cores=2,
    )
    m = machine()
    r = simulate(s, g, np.ones(3), mem_for(g), m)
    assert r.n_p2p_syncs == 2
    # lower bound: three executions + two syncs, all serialised
    per_vertex_min = 1 * m.cycles_per_cost_unit + m.miss_cycles  # stream miss
    assert r.makespan_cycles >= 3 * per_vertex_min + 2 * m.p2p_sync_cycles


def test_barrier_makespan_invariant_to_partition_listing(request):
    """Within a level, the ORDER partitions are listed in is bookkeeping:
    the simulated makespan depends only on the core assignments."""
    mesh_nd = request.getfixturevalue("mesh_nd")
    from repro.graph import dag_from_matrix_lower
    from repro.kernels import KERNELS
    from repro.runtime import LAPTOP4
    from repro.schedulers import SCHEDULERS
    from repro.core.schedule import Schedule

    from ..conftest import partition_lists

    kernel = KERNELS["spilu0"]
    g = dag_from_matrix_lower(mesh_nd)
    cost = kernel.cost(mesh_nd)
    memm = kernel.memory_model(mesh_nd, g)
    s = SCHEDULERS["hdagg"](g, cost, 4)
    shuffled = Schedule.from_partitions(
        n=s.n,
        levels=[list(reversed(level)) for level in partition_lists(s)],
        sync=s.sync, algorithm=s.algorithm, n_cores=s.n_cores,
        fine_grained=s.fine_grained, meta=dict(s.meta),
    )
    r1 = simulate(s, g, cost, memm, LAPTOP4)
    r2 = simulate(shuffled, g, cost, memm, LAPTOP4)
    assert r2.makespan_cycles == pytest.approx(r1.makespan_cycles)
    assert r2.hits == r1.hits


def test_level_spans_sum_to_makespan(request):
    mesh_nd = request.getfixturevalue("mesh_nd")
    from repro.graph import dag_from_matrix_lower
    from repro.kernels import KERNELS
    from repro.runtime import LAPTOP4
    from repro.schedulers import SCHEDULERS

    kernel = KERNELS["spilu0"]
    g = dag_from_matrix_lower(mesh_nd)
    cost = kernel.cost(mesh_nd)
    memm = kernel.memory_model(mesh_nd, g)
    r = simulate(SCHEDULERS["wavefront"](g, cost, 4), g, cost, memm, LAPTOP4)
    assert sum(r.level_spans) + r.sync_cycles == pytest.approx(r.makespan_cycles)
    assert all(s > 0 for s in r.level_spans)
