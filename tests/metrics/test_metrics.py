"""Tests for the metrics layer."""

import math

import numpy as np
import pytest

from repro.core.schedule import Schedule
from repro.graph import DAG, dag_from_matrix_lower
from repro.metrics import (
    avg_nnz_per_wavefront,
    average_parallelism,
    barrier_equivalent,
    dag_shape,
    equivalent_p2p_syncs,
    imbalance_ratio,
    inspector_cost_model,
    level_widths,
    linear_fit,
    locality_improvement,
    measured_pg,
    nre,
    r_squared,
    sync_improvement,
    two_hop_ops,
)
from repro.runtime.simulator import SimulationResult


def fake_result(**kw):
    defaults = dict(
        algorithm="x", machine="m", makespan_cycles=100.0,
        core_busy_cycles=np.array([10.0, 10.0]), hits=5, misses=5,
        n_barriers=0, n_p2p_syncs=0, sync_cycles=0.0,
        hit_cycles=4.0, miss_cycles=100.0,
    )
    defaults.update(kw)
    return SimulationResult(**defaults)


class TestLoadBalance:
    def test_measured_pg(self):
        r = fake_result(core_busy_cycles=np.array([10.0, 0.0]))
        assert measured_pg(r) == pytest.approx(0.5)

    def test_level_widths(self):
        s = Schedule.from_partitions(
            n=3,
            levels=[
                [(0, np.array([0])), (1, np.array([1]))],
                [(0, np.array([2]))],
            ],
            sync="barrier", algorithm="t", n_cores=2,
        )
        assert level_widths(s).tolist() == [2, 1]
        assert imbalance_ratio(s) == pytest.approx(0.5)
        assert imbalance_ratio(s, p=1) == 0.0

    def test_imbalance_ratio_empty(self):
        s = Schedule.from_partitions(n=0, levels=[], sync="barrier", algorithm="t", n_cores=2)
        assert imbalance_ratio(s) == 0.0


class TestLocalityAndSync:
    def test_latency_formula(self):
        r = fake_result(hits=3, misses=1)
        assert r.avg_memory_access_latency == pytest.approx((3 * 4 + 100) / 4)

    def test_locality_improvement(self):
        h = fake_result(hits=9, misses=1)
        b = fake_result(hits=1, misses=9)
        assert locality_improvement(h, b) > 1.0
        assert locality_improvement(b, h) < 1.0

    def test_barrier_equivalent(self):
        assert barrier_equivalent(3, 8) == pytest.approx(3 * 8 * 3)
        assert barrier_equivalent(1, 1) == 1.0  # log floor at 1

    def test_equivalent_p2p(self):
        r = fake_result(n_barriers=2, n_p2p_syncs=7)
        assert equivalent_p2p_syncs(r, 4) == pytest.approx(2 * 4 * 2 + 7)

    def test_sync_improvement(self):
        h = fake_result(n_barriers=1)
        b = fake_result(n_barriers=10)
        assert sync_improvement(h, b, 4) == pytest.approx(10.0)


class TestParallelism:
    def test_average_parallelism_chain(self):
        g = DAG.from_edges(4, [0, 1, 2], [1, 2, 3])
        assert average_parallelism(g) == 1.0

    def test_average_parallelism_wide(self):
        assert average_parallelism(DAG.empty(6)) == 6.0

    def test_avg_nnz_per_wavefront(self, mesh):
        g = dag_from_matrix_lower(mesh)
        val = avg_nnz_per_wavefront(mesh, g)
        assert val == pytest.approx(mesh.nnz / dag_shape(g).n_wavefronts)

    def test_dag_shape(self, mesh):
        g = dag_from_matrix_lower(mesh)
        shape = dag_shape(g)
        assert shape.n_vertices == g.n
        assert shape.n_edges == g.n_edges
        assert shape.max_wavefront >= 1
        assert shape.average_parallelism * shape.n_wavefronts == pytest.approx(g.n)

    def test_dag_shape_empty(self):
        shape = dag_shape(DAG.empty(0))
        assert shape.n_vertices == 0


class TestNRE:
    def test_equation_two(self):
        serial = fake_result(makespan_cycles=1000.0)
        par = fake_result(makespan_cycles=500.0)
        assert nre(2500.0, serial, par) == pytest.approx(5.0)

    def test_no_gain_is_inf(self):
        serial = fake_result(makespan_cycles=100.0)
        par = fake_result(makespan_cycles=150.0)
        assert math.isinf(nre(10.0, serial, par))

    def test_two_hop_ops_counts_grandparents(self, diamond_dag):
        assert two_hop_ops(diamond_dag) > diamond_dag.n_edges

    def test_cost_model_orderings(self, mesh_nd):
        """DAGP's modelled inspector dwarfs the others; wavefront is cheapest
        (the paper's Figure 9 ordering)."""
        g = dag_from_matrix_lower(mesh_nd)
        costs = {a: inspector_cost_model(a, g) for a in
                 ("wavefront", "spmp", "lbc", "hdagg", "dagp", "mkl")}
        assert costs["dagp"] > 20 * max(costs[a] for a in ("wavefront", "spmp", "lbc", "hdagg"))
        assert inspector_cost_model("serial", g) == 0.0
        assert all(c > 0 for c in costs.values())

    def test_cost_model_unknown(self, diamond_dag):
        with pytest.raises(ValueError):
            inspector_cost_model("bogus", diamond_dag)


class TestCorrelation:
    def test_perfect_line(self):
        x = np.arange(10.0)
        fit = linear_fit(x, 2 * x + 1)
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.r_squared == pytest.approx(1.0)
        np.testing.assert_allclose(fit.predict([0, 1]), [1.0, 3.0])

    def test_noise_reduces_r2(self, rng):
        x = np.linspace(0, 1, 50)
        y = x + rng.normal(0, 0.5, 50)
        assert 0.0 <= r_squared(x, y) < 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            linear_fit([1.0], [1.0])
        with pytest.raises(ValueError):
            linear_fit([1.0, 1.0], [1.0, 2.0])  # constant x
        with pytest.raises(ValueError):
            linear_fit([1.0, 2.0], [1.0])
