"""Tests for the reuse-distance profiler."""

import numpy as np
import pytest

from repro.core.schedule import Schedule
from repro.graph import DAG, dag_from_matrix_lower
from repro.kernels import KERNELS, MemoryModel
from repro.metrics import ReuseProfile, reuse_profile
from repro.runtime import LAPTOP4, MachineConfig, simulate
from repro.schedulers import SCHEDULERS


def tiny_machine(p=2, cap=64):
    return MachineConfig(name="t", n_cores=p, cache_lines_per_core=cap)


def test_same_core_chain_counts_short_distance():
    g = DAG.from_edges(2, [0], [1])
    s = Schedule.from_partitions(
        n=2, levels=[[(0, np.array([0]))], [(0, np.array([1]))]],
        sync="barrier", algorithm="t", n_cores=2,
    )
    mem = MemoryModel(np.ones(2), np.ones(1))
    prof = reuse_profile(s, g, mem, tiny_machine())
    assert prof.cross_core_lines == 0.0
    assert prof.total_lines == 1.0
    assert prof.same_core_hist["0-16"] == 1.0


def test_cross_core_counts_as_coherence():
    g = DAG.from_edges(2, [0], [1])
    s = Schedule.from_partitions(
        n=2, levels=[[(0, np.array([0]))], [(1, np.array([1]))]],
        sync="barrier", algorithm="t", n_cores=2,
    )
    mem = MemoryModel(np.ones(2), np.ones(1))
    prof = reuse_profile(s, g, mem, tiny_machine())
    assert prof.cross_core_fraction == 1.0


def test_second_consumer_chains():
    g = DAG.from_edges(3, [0, 0], [1, 2])
    s = Schedule.from_partitions(
        n=3,
        levels=[
            [(0, np.array([0]))],
            [(1, np.array([1, 2]))],
        ],
        sync="barrier", algorithm="t", n_cores=2,
    )
    mem = MemoryModel(np.ones(3), np.ones(2))
    prof = reuse_profile(s, g, mem, tiny_machine())
    # first consumer cross-core, second chains off the first on core 1
    assert prof.cross_core_lines == 1.0
    assert sum(prof.same_core_hist.values()) == 1.0


def test_profile_consistent_with_simulator(mesh_nd):
    """Hits counted by the simulator == profile volume within capacity and
    on the same core (same rule, two views)."""
    kernel = KERNELS["spilu0"]
    g = kernel.dag(mesh_nd)
    cost = kernel.cost(mesh_nd)
    mem = kernel.memory_model(mesh_nd, g)
    for algo in ("hdagg", "wavefront"):
        s = SCHEDULERS[algo](g, cost, LAPTOP4.n_cores)
        prof = reuse_profile(s, g, mem, LAPTOP4, cost)
        sim = simulate(s, g, cost, mem, LAPTOP4)
        # simulator hits are edge-lines with same-core distance <= capacity
        # (bucket boundaries quantise the comparison, so allow the volume
        # in the bucket containing the capacity)
        lower = prof.within(LAPTOP4.cache_lines_per_core // 4)
        upper = prof.within(LAPTOP4.cache_lines_per_core * 4 + 1) + 1e-9
        assert lower - 1e-9 <= sim.hits <= upper + prof.total_lines * 0.05 + 1


def test_profile_totals(mesh_nd):
    kernel = KERNELS["sptrsv"]
    from repro.sparse import lower_triangle

    low = lower_triangle(mesh_nd)
    g = kernel.dag(low)
    mem = kernel.memory_model(low, g)
    s = SCHEDULERS["hdagg"](g, kernel.cost(low), 4)
    prof = reuse_profile(s, g, mem, LAPTOP4, kernel.cost(low))
    assert prof.total_lines == pytest.approx(float(mem.edge_lines.sum()))
    assert prof.cross_core_lines + sum(prof.same_core_hist.values()) == pytest.approx(
        prof.total_lines
    )
    assert 0.0 <= prof.cross_core_fraction <= 1.0


def test_empty_graph_profile():
    g = DAG.empty(3)
    s = SCHEDULERS["serial"](g, np.ones(3))
    mem = MemoryModel(np.ones(3), np.ones(0))
    prof = reuse_profile(s, g, mem, tiny_machine(p=1))
    assert prof.total_lines == 0.0
    assert prof.cross_core_fraction == 0.0
