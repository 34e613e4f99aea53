"""Whole-pipeline integration tests: matrix -> schedule -> numerics -> metrics.

These walk the full user journey for every kernel and every scheduler on a
single matrix, asserting at each stage — the closest thing to running the
examples inside the test suite.
"""

import numpy as np
import pytest

from repro import KERNELS, SCHEDULERS, LAPTOP4, simulate
from repro.core import verify_schedule
from repro.metrics import equivalent_p2p_syncs, imbalance_ratio
from repro.sparse import apply_ordering, lower_triangle, poisson2d

ALGOS = ("hdagg", "wavefront", "spmp", "lbc", "dagp", "coarsenk")
KERNEL_NAMES = ("sptrsv", "spic0", "spilu0", "gauss_seidel")


@pytest.fixture(scope="module")
def matrix():
    ordered, _ = apply_ordering(poisson2d(14, seed=21), "nd")
    return ordered


def operand_for(kernel_name, a):
    return lower_triangle(a) if kernel_name == "sptrsv" else a


@pytest.mark.parametrize("kernel_name", KERNEL_NAMES)
@pytest.mark.parametrize("algo", ALGOS)
def test_full_pipeline(matrix, kernel_name, algo):
    kernel = KERNELS[kernel_name]
    operand = operand_for(kernel_name, matrix)
    g = kernel.dag(operand)
    cost = kernel.cost(operand)
    schedule = SCHEDULERS[algo](g, cost, LAPTOP4.n_cores)

    # 1. schedule safety + numerics under interleaving
    report = verify_schedule(kernel, operand, schedule, g, interleavings=1)
    assert report.ok, (kernel_name, algo, report.errors)

    # 2. machine-model metrics are well-formed
    result = simulate(schedule, g, cost, kernel.memory_model(operand, g), LAPTOP4)
    assert result.makespan_cycles > 0
    assert 0 <= result.potential_gain < 1
    assert 0 <= result.hit_rate <= 1
    assert equivalent_p2p_syncs(result, LAPTOP4.n_cores) >= 0
    assert 0 <= imbalance_ratio(schedule, LAPTOP4.n_cores) <= 1


@pytest.mark.parametrize("kernel_name", ("sptrsv", "spilu0"))
def test_pipeline_deterministic_end_to_end(matrix, kernel_name):
    """Two independent pipeline runs agree bit-for-bit."""
    kernel = KERNELS[kernel_name]
    operand = operand_for(kernel_name, matrix)

    def run():
        g = kernel.dag(operand)
        cost = kernel.cost(operand)
        s = SCHEDULERS["hdagg"](g, cost, 4)
        r = simulate(s, g, cost, kernel.memory_model(operand, g), LAPTOP4)
        out = kernel.execute_in_order(operand, s.execution_order())
        data = out.data if hasattr(out, "data") else out
        return s.execution_order().tolist(), r.makespan_cycles, data

    o1, m1, d1 = run()
    o2, m2, d2 = run()
    assert o1 == o2
    assert m1 == m2
    np.testing.assert_array_equal(d1, d2)


def test_serialized_schedule_survives_pipeline(matrix):
    """Inspector output persisted, reloaded, and re-used for execution +
    simulation — the cross-process inspector-executor flow."""
    from repro.store import decode_schedule, encode_schedule

    kernel = KERNELS["spilu0"]
    g = kernel.dag(matrix)
    cost = kernel.cost(matrix)
    original = SCHEDULERS["hdagg"](g, cost, 4)
    restored = decode_schedule(encode_schedule(original))

    r1 = simulate(original, g, cost, kernel.memory_model(matrix, g), LAPTOP4)
    r2 = simulate(restored, g, cost, kernel.memory_model(matrix, g), LAPTOP4)
    assert r1.makespan_cycles == r2.makespan_cycles
    assert r1.hits == r2.hits
