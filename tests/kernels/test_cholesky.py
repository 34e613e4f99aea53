"""Tests for the complete sparse Cholesky kernel."""

import numpy as np
import pytest

from repro.core import hdagg
from repro.kernels import (
    KERNELS,
    KernelError,
    SpChol,
    cholesky_in_order,
    cholesky_reference,
    embed_in_fill_pattern,
)
from repro.sparse import csr_from_dense, lower_triangle, symbolic_cholesky
from repro.sparse.csr import CSRMatrix


@pytest.fixture
def kernel():
    return SpChol()


def test_registered():
    assert KERNELS["spchol"].name == "spchol"


def test_embedding_preserves_values(mesh):
    emb = embed_in_fill_pattern(mesh)
    low = lower_triangle(mesh)
    np.testing.assert_array_equal(emb.indices, symbolic_cholesky(mesh).indices)
    # original entries preserved, fill entries zero
    np.testing.assert_array_equal(np.tril(emb.to_dense()) != 0, low.to_dense() != 0)
    np.testing.assert_allclose(emb.to_dense(), low.to_dense())


def test_matches_dense_cholesky(mesh):
    l = cholesky_reference(mesh)
    np.testing.assert_allclose(
        l.to_dense(), np.linalg.cholesky(mesh.to_dense()), rtol=1e-9, atol=1e-12
    )


def test_defect_is_dense_zero(all_small_matrices, kernel):
    for name, a in all_small_matrices.items():
        if a.n_rows > 600:
            continue  # dense verification oracle, keep it quick
        l = cholesky_reference(a)
        assert kernel.verify(a, l) < 1e-10, name


def test_scheduled_execution_matches(mesh_nd, kernel):
    g = kernel.dag(mesh_nd)
    s = hdagg(g, kernel.cost(mesh_nd), 4)
    s.validate(g)
    got = kernel.execute_in_order(mesh_nd, s.execution_order())
    np.testing.assert_allclose(got.data, cholesky_reference(mesh_nd).data, rtol=1e-10)


def test_violation_detected(mesh):
    with pytest.raises(KernelError, match="factored before"):
        cholesky_in_order(mesh, np.arange(mesh.n_rows)[::-1].copy())


def test_dag_is_filled_pattern(mesh, kernel):
    g = kernel.dag(mesh)
    filled = symbolic_cholesky(mesh)
    assert g.n_edges == filled.nnz - mesh.n_rows


def test_etree_structured_dag_suits_lbc(mesh_nd, kernel):
    """On the filled (chordal) pattern LBC finds a balanced cut — its home
    turf — while HDagg remains competitive (paper Section I framing)."""
    from repro.schedulers import SCHEDULERS

    g = kernel.dag(mesh_nd)
    cost = kernel.cost(mesh_nd)
    lbc = SCHEDULERS["lbc"](g, cost, 4)
    lbc.validate(g)
    assert lbc.n_levels <= 2
    h = hdagg(g, cost, 4)
    h.validate(g)


def test_not_spd_raises():
    a = csr_from_dense(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(KernelError, match="pivot"):
        cholesky_reference(a)


def test_nan_pivot_raises():
    # built directly, since csr_from_dense drops NaN entries (nan > 0 is False)
    a = CSRMatrix(2, 2, [0, 2, 4], [0, 1, 0, 1], [4.0, -1.0, -1.0, np.nan])
    with pytest.raises(KernelError, match="pivot"):
        cholesky_reference(a)


def test_memory_model_over_filled_pattern(mesh, kernel):
    g = kernel.dag(mesh)
    m = kernel.memory_model(mesh, g)
    m.validate(g)
    # filled pattern has at least the original lower traffic
    ic0 = KERNELS["spic0"]
    assert m.total_accesses >= ic0.memory_model(mesh).total_accesses
