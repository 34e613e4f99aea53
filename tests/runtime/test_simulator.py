"""Tests for the discrete-event execution simulator."""

import numpy as np
import pytest

from repro.core.schedule import Schedule
from repro.graph import DAG, dag_from_matrix_lower
from repro.kernels import KERNELS, MemoryModel
from repro.runtime import LAPTOP4, MachineConfig, bind_dynamic_partitions, simulate
from repro.schedulers import SCHEDULERS
from repro.sparse import lower_triangle


def tiny_machine(**kw):
    defaults = dict(name="tiny", n_cores=2, cache_lines_per_core=64,
                    hit_cycles=1.0, miss_cycles=10.0, cycles_per_cost_unit=1.0,
                    p2p_sync_cycles=5.0)
    defaults.update(kw)
    return MachineConfig(**defaults)


def make_memory(g, stream=1.0, edge=1.0):
    return MemoryModel(
        stream_lines=np.full(g.n, stream),
        edge_lines=np.full(g.n_edges, edge),
    )


class TestBarrierTiming:
    def test_two_independent_vertices(self):
        g = DAG.empty(2)
        s = Schedule.from_partitions(
            n=2,
            levels=[[(0, np.array([0])), (1, np.array([1]))]],
            sync="barrier", algorithm="t", n_cores=2,
        )
        m = tiny_machine()
        r = simulate(s, g, np.array([3.0, 5.0]), make_memory(g), m)
        # per-vertex: cost + 1 stream miss (10)
        assert r.makespan_cycles == pytest.approx(15.0)  # max(13, 15), 0 barriers
        assert r.core_busy_cycles.tolist() == [13.0, 15.0]
        assert r.n_barriers == 0

    def test_barrier_added_between_levels(self):
        g = DAG.from_edges(2, [0], [1])
        s = Schedule.from_partitions(
            n=2,
            levels=[[(0, np.array([0]))], [(0, np.array([1]))]],
            sync="barrier", algorithm="t", n_cores=2,
        )
        m = tiny_machine()
        r = simulate(s, g, np.ones(2), make_memory(g), m)
        assert r.n_barriers == 1
        # v0: 1 + 10; v1: 1 + 10 (stream) + 1 (edge hit, same core) + barrier
        assert r.makespan_cycles == pytest.approx(11 + 12 + m.barrier_cycles)
        assert r.hits == 1

    def test_cross_core_dependence_misses(self):
        g = DAG.from_edges(2, [0], [1])
        s = Schedule.from_partitions(
            n=2,
            levels=[[(0, np.array([0]))], [(1, np.array([1]))]],
            sync="barrier", algorithm="t", n_cores=2,
        )
        r = simulate(s, g, np.ones(2), make_memory(g), tiny_machine())
        assert r.hits == 0  # consumer on another core: coherence miss
        assert r.misses == 3  # two streams + one edge

    def test_window_eviction(self):
        # 0 -> 2 with a fat vertex 1 in between on the same core
        g = DAG.from_edges(3, [0], [2])
        s = Schedule.from_partitions(
            n=3, levels=[[(0, np.array([0, 1, 2]))]],
            sync="barrier", algorithm="t", n_cores=1,
        )
        mem = MemoryModel(
            stream_lines=np.array([1.0, 100.0, 1.0]), edge_lines=np.array([1.0])
        )
        hit_m = tiny_machine(n_cores=1, cache_lines_per_core=200)
        miss_m = tiny_machine(n_cores=1, cache_lines_per_core=50)
        assert simulate(s, g, np.ones(3), mem, hit_m).hits == 1
        assert simulate(s, g, np.ones(3), mem, miss_m).hits == 0


class TestConsumerReuse:
    def test_second_consumer_hits_even_cross_core_producer(self):
        # u=0 on core 0; consumers 1, 2 both on core 1
        g = DAG.from_edges(3, [0, 0], [1, 2])
        s = Schedule.from_partitions(
            n=3,
            levels=[
                [(0, np.array([0]))],
                [(1, np.array([1, 2]))],
            ],
            sync="barrier", algorithm="t", n_cores=2,
        )
        r = simulate(s, g, np.ones(3), make_memory(g), tiny_machine())
        # first consumer misses (cross core), second hits (data now local)
        assert r.hits == 1
        assert r.misses == 3 + 1  # 3 streams + first consumer


class TestP2PTiming:
    def test_pipeline_overlaps(self):
        # two independent chains on two cores: no sync at all
        g = DAG.from_edges(4, [0, 1], [2, 3])
        s = Schedule.from_partitions(
            n=4,
            levels=[
                [(0, np.array([0])), (1, np.array([1]))],
                [(0, np.array([2])), (1, np.array([3]))],
            ],
            sync="p2p", algorithm="t", n_cores=2,
        )
        r = simulate(s, g, np.ones(4), make_memory(g), tiny_machine())
        assert r.n_p2p_syncs == 0
        assert r.n_barriers == 0

    def test_cross_partition_wait(self):
        # 0 (core 0, heavy) -> 1 (core 1): core 1 waits + sync cost
        g = DAG.from_edges(2, [0], [1])
        s = Schedule.from_partitions(
            n=2,
            levels=[
                [(0, np.array([0]))],
                [(1, np.array([1]))],
            ],
            sync="p2p", algorithm="t", n_cores=2,
        )
        m = tiny_machine()
        r = simulate(s, g, np.array([100.0, 1.0]), make_memory(g), m)
        # v0 exec = 100 + 10; v1 starts at finish + sync, runs 1 + 10 + 10(miss)
        assert r.n_p2p_syncs == 1
        assert r.makespan_cycles == pytest.approx(110 + 5 + 1 + 20)

    def test_p2p_counts_unique_partition_pairs(self, mesh):
        g = dag_from_matrix_lower(mesh)
        s = SCHEDULERS["spmp"](g, np.ones(g.n), 4)
        r = simulate(s, g, np.ones(g.n), make_memory(g), tiny_machine(n_cores=4))
        assert r.n_p2p_syncs > 0
        assert r.sync_cycles == pytest.approx(r.n_p2p_syncs * 5.0)


class TestBindDynamic:
    def test_static_schedule_untouched(self, mesh):
        g = dag_from_matrix_lower(mesh)
        s = SCHEDULERS["wavefront"](g, np.ones(g.n), 4)
        assert bind_dynamic_partitions(s, np.ones(g.n)) is s

    def test_dynamic_partitions_bound(self):
        parts = [(-1, np.array([i])) for i in range(4)]
        s = Schedule.from_partitions(n=4, levels=[parts], sync="barrier", algorithm="t", n_cores=2)
        bound = bind_dynamic_partitions(s, np.ones(4))
        cores = sorted(bound.part_core.tolist())
        assert all(c >= 0 for c in cores)
        assert set(cores) == {0, 1}
        assert bound.meta.get("bound_dynamic")

    def test_binding_balances_cost(self):
        parts = [(-1, np.array([i])) for i in range(4)]
        s = Schedule.from_partitions(n=4, levels=[parts], sync="barrier", algorithm="t", n_cores=2)
        cost = np.array([4.0, 4.0, 4.0, 4.0])
        bound = bind_dynamic_partitions(s, cost)
        loads = np.zeros(2)
        for core, c in zip(bound.part_core, bound.partition_costs(cost)):
            loads[core] += c
        assert loads.tolist() == [8.0, 8.0]


class TestMetricsExposed:
    def test_result_properties(self, mesh_nd):
        kernel = KERNELS["sptrsv"]
        low = lower_triangle(mesh_nd)
        g = kernel.dag(low)
        s = SCHEDULERS["hdagg"](g, kernel.cost(low), 4)
        r = simulate(s, g, kernel.cost(low), kernel.memory_model(low, g), LAPTOP4)
        assert r.total_accesses == r.hits + r.misses
        assert 0 <= r.hit_rate <= 1
        assert LAPTOP4.hit_cycles <= r.avg_memory_access_latency <= LAPTOP4.miss_cycles
        assert 0 <= r.potential_gain < 1
        assert r.makespan_cycles > 0
        assert r.core_busy_cycles.shape == (4,)

    def test_serial_beats_nothing(self, mesh_nd):
        """Parallel makespan never exceeds serial by more than sync cost."""
        kernel = KERNELS["sptrsv"]
        low = lower_triangle(mesh_nd)
        g = kernel.dag(low)
        cost = kernel.cost(low)
        mem = kernel.memory_model(low, g)
        serial = simulate(SCHEDULERS["serial"](g, cost), g, cost, mem, LAPTOP4.scaled(1))
        assert serial.potential_gain == 0.0  # single core is trivially balanced
        assert serial.n_barriers == 0

    def test_memory_model_mismatch_rejected(self, mesh):
        g = dag_from_matrix_lower(mesh)
        s = SCHEDULERS["serial"](g, np.ones(g.n))
        bad = MemoryModel(np.ones(g.n + 1), np.ones(g.n_edges))
        with pytest.raises(ValueError):
            simulate(s, g, np.ones(g.n), bad, LAPTOP4)
