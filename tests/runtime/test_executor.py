"""Tests for the schedule-driven executor and interleaving generator."""

import numpy as np
import pytest

from repro.core.schedule import Schedule
from repro.graph import dag_from_matrix_lower, verify_schedule_order
from repro.kernels import KERNELS, KernelError
from repro.runtime import execute_schedule, interleaved_order
from repro.schedulers import SCHEDULERS
from repro.sparse import lower_triangle


def test_interleaved_order_is_level_consistent(mesh_nd):
    g = dag_from_matrix_lower(mesh_nd)
    s = SCHEDULERS["hdagg"](g, np.ones(g.n), 4)
    for seed in range(3):
        order = interleaved_order(s, seed=seed)
        assert verify_schedule_order(g, order)


def test_interleavings_differ_by_seed(mesh_nd):
    g = dag_from_matrix_lower(mesh_nd)
    s = SCHEDULERS["wavefront"](g, np.ones(g.n), 4)
    o1 = interleaved_order(s, seed=1)
    o2 = interleaved_order(s, seed=2)
    assert not np.array_equal(o1, o2)


def test_interleaved_preserves_partition_order():
    s = Schedule.from_partitions(
        n=4,
        levels=[[(0, np.array([0, 2])), (1, np.array([1, 3]))]],
        sync="barrier", algorithm="t", n_cores=2,
    )
    order = interleaved_order(s, seed=0)
    pos = {int(v): i for i, v in enumerate(order)}
    assert pos[0] < pos[2] and pos[1] < pos[3]


def test_execute_schedule_canonical(mesh_nd, rng):
    kernel = KERNELS["sptrsv"]
    low = lower_triangle(mesh_nd)
    g = kernel.dag(low)
    s = SCHEDULERS["hdagg"](g, kernel.cost(low), 4)
    b = rng.normal(size=mesh_nd.n_rows)
    got = execute_schedule(kernel, low, s, b)
    np.testing.assert_allclose(got, kernel.reference(low, b), rtol=1e-10)


def test_execute_schedule_interleaved_factorisation(mesh_nd):
    kernel = KERNELS["spilu0"]
    g = kernel.dag(mesh_nd)
    s = SCHEDULERS["spmp"](g, kernel.cost(mesh_nd), 4)
    got = execute_schedule(kernel, mesh_nd, s, interleave_seed=7)
    np.testing.assert_allclose(got.data, kernel.reference(mesh_nd).data, rtol=1e-10)


def test_bad_schedule_raises_through_executor(mesh_nd):
    """A schedule that violates dependences is caught at execution time."""
    kernel = KERNELS["sptrsv"]
    low = lower_triangle(mesh_nd)
    g = kernel.dag(low)
    n = g.n
    bad = Schedule.from_partitions(
        n=n,
        levels=[[(0, np.arange(n)[::-1].copy())]],
        sync="barrier", algorithm="bad", n_cores=1,
    )
    with pytest.raises(KernelError):
        execute_schedule(kernel, low, bad)


def test_empty_schedule():
    s = Schedule.from_partitions(n=0, levels=[], sync="barrier", algorithm="t", n_cores=1)
    assert interleaved_order(s).size == 0
