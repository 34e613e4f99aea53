"""End-to-end tests for the HDagg inspector (Algorithm 1)."""

import numpy as np
import pytest

from repro.core import DEFAULT_EPSILON, hdagg
from repro.graph import dag_from_matrix_lower, verify_schedule_order
from repro.kernels import KERNELS
from repro.sparse import lower_triangle

from ..conftest import assert_valid_schedule


@pytest.mark.parametrize("p", [1, 2, 4, 8])
def test_valid_on_every_family(all_small_matrices, p):
    for name, a in all_small_matrices.items():
        g = dag_from_matrix_lower(a)
        cost = KERNELS["spilu0"].cost(a)
        s = hdagg(g, cost, p)
        s.validate(g)
        assert s.algorithm == "hdagg"
        assert verify_schedule_order(g, s.execution_order()), name


def test_numerics_all_kernels(mesh_nd, rng):
    b = rng.normal(size=mesh_nd.n_rows)
    for kname, kernel in KERNELS.items():
        operand = lower_triangle(mesh_nd) if kname == "sptrsv" else mesh_nd
        g = kernel.dag(operand)
        s = hdagg(g, kernel.cost(operand), 4)
        assert_valid_schedule(s, g, kernel, operand, b)


def test_width_bounded_by_p_when_packed(mesh_nd):
    g = dag_from_matrix_lower(mesh_nd)
    s = hdagg(g, np.ones(g.n), 3, epsilon=0.5)
    if not s.fine_grained:
        assert np.all(np.diff(s.level_ptr) <= 3)


def test_bins_sorted_smallest_id_first(mesh_nd):
    g = dag_from_matrix_lower(mesh_nd)
    s = hdagg(g, np.ones(g.n), 4)
    for lo, hi in zip(s.part_ptr[:-1], s.part_ptr[1:]):
        assert np.all(np.diff(s.order[lo:hi]) > 0)


def test_meta_diagnostics(mesh_nd):
    g = dag_from_matrix_lower(mesh_nd)
    s = hdagg(g, np.ones(g.n), 4)
    for key in (
        "n_groups",
        "n_edges_original",
        "n_edges_reduced",
        "n_coarse_wavefronts",
        "accumulated_pgp",
        "epsilon",
    ):
        assert key in s.meta
    assert s.meta["epsilon"] == DEFAULT_EPSILON
    assert s.meta["n_edges_reduced"] <= s.meta["n_edges_original"]


def test_coarsening_reduces_levels(blocks):
    """On an embarrassingly parallel DAG, HDagg merges all wavefronts."""
    g = dag_from_matrix_lower(blocks)
    from repro.graph import compute_wavefronts

    s = hdagg(g, np.ones(g.n), 2)
    assert s.n_levels < compute_wavefronts(g).n_levels
    assert s.n_levels == 1


def test_ablation_switches(mesh_nd):
    g = dag_from_matrix_lower(mesh_nd)
    cost = np.ones(g.n)
    full = hdagg(g, cost, 4)
    no_step1 = hdagg(g, cost, 4, aggregate=False)
    no_tr = hdagg(g, cost, 4, transitive_reduce=False)
    no_pack = hdagg(g, cost, 4, bin_pack=False)
    for s in (full, no_step1, no_tr, no_pack):
        s.validate(g)
    assert no_step1.meta["n_groups"] == g.n
    assert no_pack.fine_grained


def test_step1_groups_on_kite(kite):
    g = dag_from_matrix_lower(kite)
    s = hdagg(g, np.ones(g.n), 2)
    s.validate(g)
    assert s.meta["n_groups"] < g.n  # cliques collapse into subtree groups


def test_epsilon_monotonicity(mesh_nd):
    """Looser epsilon never yields more coarsened wavefronts."""
    g = dag_from_matrix_lower(mesh_nd)
    cost = np.ones(g.n)
    tight = hdagg(g, cost, 4, epsilon=0.05)
    loose = hdagg(g, cost, 4, epsilon=0.9)
    assert loose.meta["n_coarse_wavefronts"] <= tight.meta["n_coarse_wavefronts"]


def test_p1_single_core(mesh_nd):
    g = dag_from_matrix_lower(mesh_nd)
    s = hdagg(g, np.ones(g.n), 1)
    s.validate(g)
    # one core: everything merges into one coarsened wavefront
    assert s.n_levels == 1


def test_empty_graph():
    from repro.graph import DAG

    s = hdagg(DAG.empty(0), np.zeros(0), 4)
    assert s.n == 0
    assert s.n_levels == 0


def test_cost_length_checked(mesh_nd):
    g = dag_from_matrix_lower(mesh_nd)
    with pytest.raises(ValueError):
        hdagg(g, np.ones(3), 4)


def test_deterministic(mesh_nd):
    g = dag_from_matrix_lower(mesh_nd)
    cost = KERNELS["spilu0"].cost(mesh_nd)
    s1 = hdagg(g, cost, 4)
    s2 = hdagg(g, cost, 4)
    assert s1.execution_order().tolist() == s2.execution_order().tolist()
    assert s1.core_assignment().tolist() == s2.core_assignment().tolist()
