"""Tests for the strong-scaling sweep."""

import pytest

from repro.kernels import KERNELS
from repro.runtime import LAPTOP4
from repro.sparse import apply_ordering, poisson2d
from repro.suite import strong_scaling


@pytest.fixture(scope="module")
def problem():
    a, _ = apply_ordering(poisson2d(24, seed=2), "nd")
    kernel = KERNELS["spilu0"]
    g = kernel.dag(a)
    return g, kernel.cost(a), kernel.memory_model(a, g)


def test_strong_scaling_points(problem):
    g, cost, mem = problem
    pts = strong_scaling(g, cost, mem, LAPTOP4,
                         algorithms=("hdagg", "wavefront"),
                         core_counts=(1, 2, 4))
    assert len(pts) == 6
    by = {(p.algorithm, p.n_cores): p for p in pts}
    for algo in ("hdagg", "wavefront"):
        assert by[(algo, 4)].speedup >= by[(algo, 1)].speedup
        for p in (1, 2, 4):
            pt = by[(algo, p)]
            assert pt.efficiency == pytest.approx(pt.speedup / p)
            assert 0 <= pt.potential_gain < 1


def test_strong_scaling_single_core_near_serial(problem):
    g, cost, mem = problem
    (pt,) = strong_scaling(g, cost, mem, LAPTOP4,
                           algorithms=("hdagg",), core_counts=(1,))
    assert 0.5 <= pt.speedup <= 1.6
