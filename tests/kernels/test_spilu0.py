"""Tests for the SpILU0 kernel."""

import numpy as np
import pytest

from repro.kernels import KernelError, SpILU0, ilu0_defect, spilu0_in_order, spilu0_reference, split_lu
from repro.sparse import csr_from_dense
from repro.sparse.csr import CSRMatrix


@pytest.fixture
def kernel():
    return SpILU0()


class TestReference:
    def test_dense_matches_lu(self, rng):
        """On a dense pattern ILU(0) is exact LU (Doolittle)."""
        dense = rng.random((7, 7)) + 7 * np.eye(7)
        a = csr_from_dense(dense)
        factor = spilu0_reference(a)
        l, u = split_lu(factor)
        np.testing.assert_allclose((l @ u).toarray(), dense, rtol=1e-10)

    def test_defect_zero_on_pattern(self, all_small_matrices):
        for name, a in all_small_matrices.items():
            factor = spilu0_reference(a)
            assert ilu0_defect(a, factor) < 1e-10, name

    def test_matches_scipy_spilu_on_dense_pattern(self, rng):
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        dense = rng.random((6, 6)) + 6 * np.eye(6)
        a = csr_from_dense(dense)
        factor = spilu0_reference(a)
        l, u = split_lu(factor)
        lu = spla.splu(sp.csc_matrix(dense), permc_spec="NATURAL",
                       diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        np.testing.assert_allclose((l @ u).toarray(), dense, rtol=1e-10)

    def test_structure_preserved(self, mesh):
        factor = spilu0_reference(mesh)
        np.testing.assert_array_equal(factor.indptr, mesh.indptr)
        np.testing.assert_array_equal(factor.indices, mesh.indices)

    def test_zero_pivot_raises(self):
        # u[1,1] becomes 0 after eliminating row 1; row 2 then divides by it
        a = csr_from_dense(np.array([[1.0, 1, 0], [1, 1, 1], [0, 1, 1]]))
        with pytest.raises(KernelError, match="pivot"):
            spilu0_reference(a)

    @pytest.mark.parametrize(
        "dense, row",
        [
            ([[1.0, 1], [1, 1]], 1),  # the last row's pivot becomes 0
            ([[1.0, 1, 0], [1, 1, 0], [0, 0, 1]], 1),  # no later row reads row 1
        ],
    )
    def test_unread_zero_pivot_raises(self, dense, row):
        a = csr_from_dense(np.array(dense))
        with pytest.raises(KernelError, match=f"zero pivot at row {row}"):
            spilu0_reference(a)
        with pytest.raises(KernelError, match=f"zero pivot at row {row}"):
            spilu0_in_order(a, np.arange(a.n_rows))

    def test_unread_nan_pivot_raises(self):
        # row 2 is the last row: no later row divides by its pivot
        data = np.array([4.0, -1.0, -1.0, 4.0, -1.0, -1.0, np.nan])
        a = CSRMatrix(3, 3, [0, 2, 5, 7], [0, 1, 0, 1, 2, 1, 2], data)
        with pytest.raises(KernelError, match="NaN pivot at row 2"):
            spilu0_reference(a)

    def test_missing_diagonal_raises(self):
        a = csr_from_dense(np.array([[0.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(KernelError, match="diagonal"):
            spilu0_reference(a)

    @pytest.mark.parametrize("row", [0, 1])
    def test_nan_pivot_raises(self, row):
        # built directly, since csr_from_dense drops NaN entries (nan > 0 is False);
        # the pivot of row 0 or 1 is divided by when row 1 or 2 is eliminated
        data = np.array([4.0, -1.0, -1.0, 4.0, -1.0, -1.0, 4.0])
        data[[0, 3][row]] = np.nan
        a = CSRMatrix(3, 3, [0, 2, 5, 7], [0, 1, 0, 1, 2, 1, 2], data)
        with pytest.raises(KernelError, match="pivot"):
            spilu0_reference(a)
        with pytest.raises(KernelError, match="pivot"):
            spilu0_in_order(a, np.arange(3))

    def test_tridiagonal_exact(self, chain):
        """Tridiagonal has no fill, so ILU(0) factors exactly."""
        factor = spilu0_reference(chain)
        l, u = split_lu(factor)
        np.testing.assert_allclose((l @ u).toarray(), chain.to_dense(), rtol=1e-10)


class TestSplitLU:
    def test_unit_lower(self, mesh):
        l, u = split_lu(spilu0_reference(mesh))
        np.testing.assert_allclose(l.diagonal(), np.ones(mesh.n_rows))
        assert (abs(sp_triu_strict(l)) > 0).nnz == 0

    def test_upper_has_no_lower(self, mesh):
        _, u = split_lu(spilu0_reference(mesh))
        assert (abs(sp_tril_strict(u)) > 0).nnz == 0


def sp_triu_strict(m):
    import scipy.sparse as sp

    return sp.triu(m, k=1)


def sp_tril_strict(m):
    import scipy.sparse as sp

    return sp.tril(m, k=-1)


class TestInOrder:
    def test_identity_order_matches(self, mesh):
        ref = spilu0_reference(mesh)
        got = spilu0_in_order(mesh, np.arange(mesh.n_rows))
        np.testing.assert_allclose(got.data, ref.data, rtol=1e-12)

    def test_topological_order_matches(self, irregular, kernel):
        from repro.graph import topological_order

        order = topological_order(kernel.dag(irregular))
        np.testing.assert_allclose(
            spilu0_in_order(irregular, order).data,
            spilu0_reference(irregular).data,
            rtol=1e-10,
        )

    def test_violation_raises(self, mesh):
        with pytest.raises(KernelError, match="eliminated before"):
            spilu0_in_order(mesh, np.arange(mesh.n_rows)[::-1].copy())

    def test_non_permutation_rejected(self, mesh):
        with pytest.raises(KernelError, match="permutation"):
            spilu0_in_order(mesh, np.zeros(mesh.n_rows, dtype=int))


class TestInspectorInterface:
    def test_cost_counts_full_rows(self, mesh, kernel):
        c = kernel.cost(mesh)
        assert c.shape == (mesh.n_rows,)
        assert np.all(c >= mesh.row_nnz())

    def test_memory_model(self, mesh, kernel):
        g = kernel.dag(mesh)
        m = kernel.memory_model(mesh, g)
        m.validate(g)
        assert m.total_accesses > 0

    def test_verify_detects_wrong_factor(self, tiny_spd, kernel):
        factor = spilu0_reference(tiny_spd)
        bad = factor.with_data(factor.data + 1.0)
        assert kernel.verify(tiny_spd, bad) > 0.1
