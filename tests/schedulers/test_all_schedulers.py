"""Cross-cutting contract tests: every scheduler x every matrix family."""

import numpy as np
import pytest

from repro.graph import dag_from_matrix_lower, verify_schedule_order
from repro.kernels import KERNELS
from repro.schedulers import SCHEDULERS, get_scheduler
from repro.sparse import lower_triangle

ALGOS = ["hdagg", "wavefront", "spmp", "lbc", "dagp", "mkl", "serial"]


def build(name, g, cost, p):
    builder = SCHEDULERS[name]
    return builder(g, cost, p) if name != "serial" else builder(g, cost)


@pytest.mark.parametrize("name", ALGOS)
def test_schedule_contract(name, all_small_matrices):
    """Partition-cover, dependence safety, and a valid topological order."""
    for mname, a in all_small_matrices.items():
        g = dag_from_matrix_lower(a)
        cost = KERNELS["spilu0"].cost(a)
        s = build(name, g, cost, 4)
        s.validate(g)
        assert verify_schedule_order(g, s.execution_order()), (name, mname)
        assert s.n == g.n


@pytest.mark.parametrize("name", ALGOS)
def test_deterministic(name, mesh_nd):
    g = dag_from_matrix_lower(mesh_nd)
    cost = KERNELS["spilu0"].cost(mesh_nd)
    s1, s2 = build(name, g, cost, 4), build(name, g, cost, 4)
    assert s1.execution_order().tolist() == s2.execution_order().tolist()


@pytest.mark.parametrize("name", [a for a in ALGOS if a != "serial"])
def test_numerics_via_interleaved_execution(name, mesh_nd, rng):
    """Adversarial interleaving within levels must still compute correctly."""
    from repro.runtime import execute_schedule

    kernel = KERNELS["sptrsv"]
    low = lower_triangle(mesh_nd)
    g = kernel.dag(low)
    s = build(name, g, kernel.cost(low), 4)
    b = rng.normal(size=mesh_nd.n_rows)
    ref = kernel.reference(low, b)
    for seed in (0, 1, 2):
        got = execute_schedule(kernel, low, s, b, interleave_seed=seed)
        np.testing.assert_allclose(got, ref, rtol=1e-10, err_msg=f"{name} seed={seed}")


def test_registry_contents():
    for name in ALGOS:
        assert name in SCHEDULERS
    assert get_scheduler("hdagg") is SCHEDULERS["hdagg"]


def test_registry_unknown():
    with pytest.raises(KeyError, match="available"):
        get_scheduler("nope")


@pytest.mark.parametrize("name", [a for a in ALGOS if a != "serial"])
def test_p_equals_one_collapses(name, mesh):
    g = dag_from_matrix_lower(mesh)
    s = build(name, g, np.ones(g.n), 1)
    s.validate(g)
    widths = np.diff(s.level_ptr)
    for k, width in enumerate(widths.tolist()):
        cores = s.part_core[s.level_ptr[k] : s.level_ptr[k + 1]]
        assert width == 1 or np.all((cores == 0) | (cores == -1))


@pytest.mark.parametrize("name", [a for a in ALGOS if a != "serial"])
def test_more_cores_than_vertices(name):
    from repro.sparse import poisson2d

    a = poisson2d(3, seed=1)  # 9 vertices
    g = dag_from_matrix_lower(a)
    s = build(name, g, np.ones(9), 32)
    s.validate(g)


@pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
@pytest.mark.parametrize("name", sorted(SCHEDULERS))
def test_bad_costs_fail_closed(name, bad, mesh):
    """A negative or non-finite cost is refused before any pass runs."""
    g = dag_from_matrix_lower(mesh)
    cost = np.ones(g.n)
    cost[g.n // 2] = bad
    with pytest.raises(ValueError, match="finite and non-negative"):
        SCHEDULERS[name](g, cost, 4)
