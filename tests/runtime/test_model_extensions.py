"""Tests for the model extensions: p2p-HDagg and bandwidth contention."""

import dataclasses

import numpy as np
import pytest

from repro.core import hdagg
from repro.graph import dag_from_matrix_lower
from repro.kernels import KERNELS
from repro.runtime import LAPTOP4, simulate
from repro.sparse import lower_triangle


@pytest.fixture(scope="module")
def problem(request):
    mesh_nd = request.getfixturevalue("mesh_nd")
    kernel = KERNELS["spilu0"]
    g = kernel.dag(mesh_nd)
    return mesh_nd, kernel, g, kernel.cost(mesh_nd), kernel.memory_model(mesh_nd, g)


class TestP2PHDagg:
    def test_valid_and_correct(self, problem):
        a, kernel, g, cost, mem = problem
        s = hdagg(g, cost, 4, sync="p2p")
        assert s.sync == "p2p"
        s.validate(g)
        got = kernel.execute_in_order(a, s.execution_order())
        np.testing.assert_allclose(got.data, kernel.reference(a).data, rtol=1e-10)

    def test_same_partitioning_as_barrier(self, problem):
        _, _, g, cost, _ = problem
        barrier = hdagg(g, cost, 4)
        p2p = hdagg(g, cost, 4, sync="p2p")
        assert barrier.execution_order().tolist() == p2p.execution_order().tolist()
        assert barrier.n_barriers() > 0 and p2p.n_barriers() == 0

    def test_overlap_never_slower(self, problem):
        """Removing barriers (same partitions) cannot increase the makespan."""
        _, _, g, cost, mem = problem
        barrier = simulate(hdagg(g, cost, 4), g, cost, mem, LAPTOP4)
        p2p = simulate(hdagg(g, cost, 4, sync="p2p"), g, cost, mem, LAPTOP4)
        assert p2p.makespan_cycles <= barrier.makespan_cycles * 1.01

    def test_rejects_unknown_sync(self, problem):
        _, _, g, cost, _ = problem
        with pytest.raises(Exception):
            hdagg(g, cost, 4, sync="quantum")


class TestBandwidthContention:
    def test_off_by_default(self):
        assert LAPTOP4.bandwidth_contention == 0.0

    def test_contention_slows_parallel_runs(self, problem):
        _, _, g, cost, mem = problem
        s = hdagg(g, cost, 4)
        throttled = dataclasses.replace(LAPTOP4, bandwidth_contention=0.25)
        r0 = simulate(s, g, cost, mem, LAPTOP4)
        r1 = simulate(s, g, cost, mem, throttled)
        assert r1.makespan_cycles > r0.makespan_cycles
        # reported latency reflects the inflated miss cost
        assert r1.avg_memory_access_latency > r0.avg_memory_access_latency

    def test_serial_unaffected(self, problem):
        """A one-wide schedule has no concurrent cores to contend with."""
        from repro.schedulers import SCHEDULERS

        _, _, g, cost, mem = problem
        s = SCHEDULERS["serial"](g, cost)
        throttled = dataclasses.replace(
            LAPTOP4.scaled(1), bandwidth_contention=0.25
        )
        r0 = simulate(s, g, cost, mem, LAPTOP4.scaled(1))
        r1 = simulate(s, g, cost, mem, throttled)
        assert r1.makespan_cycles == pytest.approx(r0.makespan_cycles)

    def test_scaled_preserves_contention(self):
        m = dataclasses.replace(LAPTOP4, bandwidth_contention=0.3)
        assert m.scaled(2).bandwidth_contention == 0.3
