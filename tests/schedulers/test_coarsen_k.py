"""Tests for the fixed-window coarsening baseline."""

import numpy as np
import pytest

from repro.core import accumulated_pgp, hdagg
from repro.graph import compute_wavefronts, dag_from_matrix_lower, verify_schedule_order
from repro.kernels import KERNELS
from repro.schedulers import SCHEDULERS

coarsen_k_schedule = SCHEDULERS["coarsenk"]


def test_valid_on_every_family(all_small_matrices):
    for name, a in all_small_matrices.items():
        g = dag_from_matrix_lower(a)
        s = coarsen_k_schedule(g, np.ones(g.n), 4, k=3)
        s.validate(g)
        assert verify_schedule_order(g, s.execution_order()), name


def test_window_one_equals_wavefront_levels(mesh_nd):
    g = dag_from_matrix_lower(mesh_nd)
    s = coarsen_k_schedule(g, np.ones(g.n), 4, k=1)
    assert s.n_levels == compute_wavefronts(g).n_levels


def test_window_reduces_levels(mesh_nd):
    g = dag_from_matrix_lower(mesh_nd)
    waves = compute_wavefronts(g).n_levels
    s = coarsen_k_schedule(g, np.ones(g.n), 4, k=4)
    assert s.n_levels == -(-waves // 4)


def test_huge_window_single_level(mesh_nd):
    g = dag_from_matrix_lower(mesh_nd)
    s = coarsen_k_schedule(g, np.ones(g.n), 4, k=10**6)
    assert s.n_levels == 1


def test_window_validated(mesh_nd):
    g = dag_from_matrix_lower(mesh_nd)
    with pytest.raises(ValueError):
        coarsen_k_schedule(g, np.ones(g.n), 4, k=0)


def test_registered():
    assert "coarsenk" in SCHEDULERS


def test_lbp_balances_better_than_fixed_window(mesh_nd):
    """The point of LBP (Section IV-C): balance-aware cuts beat a blind
    window on accumulated load balance for comparable coarsening."""
    kernel = KERNELS["spilu0"]
    g = kernel.dag(mesh_nd)
    cost = kernel.cost(mesh_nd)
    h = hdagg(g, cost, 4)
    naive = coarsen_k_schedule(g, cost, 4, k=max(1, round(
        compute_wavefronts(g).n_levels / max(1, h.n_levels))))
    assert accumulated_pgp(h, cost) <= accumulated_pgp(naive, cost) + 0.05
