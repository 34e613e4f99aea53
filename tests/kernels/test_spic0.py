"""Tests for the SpIC0 kernel."""

import numpy as np
import pytest

from repro.kernels import KernelError, SpIC0, ic0_defect, spic0_in_order, spic0_reference
from repro.sparse import csr_from_dense, lower_triangle
from repro.sparse.csr import CSRMatrix


@pytest.fixture
def kernel():
    return SpIC0()


class TestReference:
    def test_tiny_matches_dense_cholesky(self, tiny_spd):
        """When the pattern has no fill, IC(0) == exact Cholesky."""
        factor = spic0_reference(tiny_spd)
        np.testing.assert_allclose(
            factor.to_dense(), np.linalg.cholesky(tiny_spd.to_dense()), rtol=1e-12
        )

    def test_dense_spd_matches_cholesky(self, rng):
        dense = rng.random((8, 8))
        spd = dense @ dense.T + 8 * np.eye(8)
        a = csr_from_dense(spd)
        factor = spic0_reference(a)
        np.testing.assert_allclose(factor.to_dense(), np.linalg.cholesky(spd), rtol=1e-10)

    def test_defect_zero_on_pattern(self, all_small_matrices, kernel):
        for name, a in all_small_matrices.items():
            factor = spic0_reference(a)
            assert ic0_defect(a, factor) < 1e-12, name

    def test_factor_structure_is_lower_pattern(self, mesh):
        factor = spic0_reference(mesh)
        low = lower_triangle(mesh)
        np.testing.assert_array_equal(factor.indptr, low.indptr)
        np.testing.assert_array_equal(factor.indices, low.indices)

    def test_positive_diagonal(self, mesh):
        factor = spic0_reference(mesh)
        assert np.all(factor.diagonal() > 0)

    def test_non_spd_raises(self):
        a = csr_from_dense(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
        with pytest.raises(KernelError, match="pivot"):
            spic0_reference(a)

    def test_missing_diagonal_raises(self):
        a = csr_from_dense(np.array([[1.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(KernelError, match="diagonal"):
            spic0_reference(a)

    @pytest.mark.parametrize("row", [0, 1, 2])
    def test_nan_pivot_raises(self, row):
        # built directly, since csr_from_dense drops NaN entries (nan > 0 is False)
        data = np.array([4.0, -1.0, -1.0, 4.0, -1.0, -1.0, 4.0])
        data[[0, 3, 6][row]] = np.nan
        a = CSRMatrix(3, 3, [0, 2, 5, 7], [0, 1, 0, 1, 2, 1, 2], data)
        with pytest.raises(KernelError, match="pivot"):
            spic0_reference(a)
        with pytest.raises(KernelError, match="pivot"):
            spic0_in_order(a, np.arange(3))


class TestInOrder:
    def test_identity_order_matches(self, mesh):
        ref = spic0_reference(mesh)
        got = spic0_in_order(mesh, np.arange(mesh.n_rows))
        np.testing.assert_allclose(got.data, ref.data, rtol=1e-12)

    def test_topological_order_matches(self, irregular, kernel):
        from repro.graph import topological_order

        order = topological_order(kernel.dag(irregular))
        ref = spic0_reference(irregular)
        got = spic0_in_order(irregular, order)
        np.testing.assert_allclose(got.data, ref.data, rtol=1e-10)

    def test_violation_raises(self, mesh):
        with pytest.raises(KernelError, match="factored before"):
            spic0_in_order(mesh, np.arange(mesh.n_rows)[::-1].copy())

    def test_non_permutation_rejected(self, mesh):
        with pytest.raises(KernelError, match="permutation"):
            spic0_in_order(mesh, np.zeros(mesh.n_rows, dtype=int))


class TestInspectorInterface:
    def test_cost_positive_and_grows_with_deps(self, mesh, kernel):
        c = kernel.cost(mesh)
        assert np.all(c >= 1)
        # later rows (more lower neighbours) cost at least as much as row 0
        assert c.max() > c[0]

    def test_memory_model_edges_use_source_rows(self, mesh, kernel):
        g = kernel.dag(mesh)
        m = kernel.memory_model(mesh, g)
        m.validate(g)
        src, _ = g.edge_list()
        low = lower_triangle(mesh)
        from repro.kernels import lines_of_rows

        per_row, _ = lines_of_rows(low)
        np.testing.assert_array_equal(m.edge_lines, per_row[src].astype(float))

    def test_verify_detects_wrong_factor(self, tiny_spd, kernel):
        factor = spic0_reference(tiny_spd)
        bad = factor.with_data(factor.data * 1.5)
        assert kernel.verify(tiny_spd, bad) > 0.1
