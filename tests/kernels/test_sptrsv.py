"""Tests for the SpTRSV kernel."""

import re

import numpy as np
import pytest

from repro.kernels import (
    KernelError,
    SpTRSV,
    check_solvable,
    gauss_seidel_in_order,
    sptrsv_levelwise,
    sptrsv_reference,
    sptrsv_transpose_levelwise,
)
from repro.sparse import csr_from_dense, dense_lower_solve, lower_triangle


@pytest.fixture
def kernel():
    return SpTRSV()


def lower_of(a):
    return lower_triangle(a)


class TestReference:
    def test_matches_dense_solver(self, mesh, rng, kernel):
        low = lower_of(mesh)
        b = rng.normal(size=mesh.n_rows)
        x = sptrsv_reference(low, b)
        np.testing.assert_allclose(x, dense_lower_solve(low.to_dense(), b), rtol=1e-12)

    def test_identity(self, kernel):
        low = csr_from_dense(np.eye(4) * 2.0)
        np.testing.assert_allclose(sptrsv_reference(low, np.ones(4)), 0.5 * np.ones(4))

    def test_residual_zero(self, mesh, rng, kernel):
        low = lower_of(mesh)
        b = rng.normal(size=mesh.n_rows)
        assert kernel.verify(low, sptrsv_reference(low, b), b) < 1e-12

    def test_b_shape_checked(self, mesh):
        with pytest.raises(ValueError):
            sptrsv_reference(lower_of(mesh), np.ones(3))


class TestValidation:
    def test_upper_entries_rejected(self):
        a = csr_from_dense(np.array([[1.0, 1], [0, 1]]))
        with pytest.raises(KernelError, match="above the diagonal"):
            check_solvable(a)

    def test_missing_diagonal_rejected(self):
        a = csr_from_dense(np.array([[1.0, 0], [1, 0]]))
        with pytest.raises(KernelError, match="diagonal"):
            check_solvable(a)

    def test_zero_diagonal_rejected(self):
        a = csr_from_dense(np.array([[1.0, 0.0], [1.0, 1.0]]))
        bad = a.with_data(np.array([0.0, 1.0, 1.0]))
        with pytest.raises(KernelError, match="zero"):
            check_solvable(bad)

    def test_non_square_rejected(self):
        with pytest.raises(KernelError, match="square"):
            check_solvable(csr_from_dense(np.tril(np.ones((2, 3)))))


class TestLevelwise:
    def test_matches_reference(self, all_small_matrices, rng):
        for name, a in all_small_matrices.items():
            low = lower_of(a)
            b = rng.normal(size=a.n_rows)
            np.testing.assert_allclose(
                sptrsv_levelwise(low, b), sptrsv_reference(low, b), rtol=1e-10, err_msg=name
            )


class TestExecuteInOrder:
    def test_identity_order(self, mesh, rng, kernel):
        low = lower_of(mesh)
        b = rng.normal(size=mesh.n_rows)
        x = kernel.execute_in_order(low, np.arange(mesh.n_rows), b)
        np.testing.assert_allclose(x, sptrsv_reference(low, b), rtol=1e-12)

    def test_any_topological_order(self, irregular, rng, kernel):
        from repro.graph import topological_order

        low = lower_of(irregular)
        order = topological_order(kernel.dag(low))
        b = rng.normal(size=irregular.n_rows)
        x = kernel.execute_in_order(low, order, b)
        np.testing.assert_allclose(x, sptrsv_reference(low, b), rtol=1e-10)

    def test_violation_raises(self, mesh, kernel):
        low = lower_of(mesh)
        order = np.arange(mesh.n_rows)[::-1].copy()
        with pytest.raises(KernelError, match="dependences"):
            kernel.execute_in_order(low, order)

    def test_non_permutation_rejected(self, mesh, kernel):
        low = lower_of(mesh)
        with pytest.raises(KernelError, match="permutation"):
            kernel.execute_in_order(low, np.zeros(mesh.n_rows, dtype=int))

    def test_default_rhs_is_ones(self, mesh, kernel):
        low = lower_of(mesh)
        x = kernel.execute_in_order(low, np.arange(mesh.n_rows))
        np.testing.assert_allclose(x, sptrsv_reference(low, np.ones(mesh.n_rows)))


class TestInspectorInterface:
    def test_dag_matches_pattern(self, mesh, kernel):
        low = lower_of(mesh)
        g = kernel.dag(low)
        assert g.n_edges == low.nnz - mesh.n_rows  # off-diagonal lower entries

    def test_cost_is_row_nnz(self, mesh, kernel):
        low = lower_of(mesh)
        np.testing.assert_array_equal(kernel.cost(low), low.row_nnz().astype(float))

    def test_memory_trace_shape(self, mesh, kernel):
        low = lower_of(mesh)
        ptr, lines = kernel.memory_trace(low)
        assert ptr.shape[0] == mesh.n_rows + 1
        assert int(ptr[-1]) == lines.shape[0]
        assert lines.min() >= 0

    def test_memory_model(self, mesh, kernel):
        low = lower_of(mesh)
        g = kernel.dag(low)
        m = kernel.memory_model(low, g)
        m.validate(g)
        assert np.all(m.edge_lines == 1.0)  # one x-line per dependence
        assert np.all(m.stream_lines >= 2.0)  # own row + x write


class TestRightHandSideShape:
    """Every solve rejects a ``b`` that is not a vector of exactly ``n`` entries."""

    @pytest.fixture
    def low(self):
        from repro.sparse import poisson2d

        return lower_triangle(poisson2d(5))

    @pytest.mark.parametrize("shape", ["long", "short", "column"])
    @pytest.mark.parametrize(
        "solve",
        [
            lambda low, b: SpTRSV().execute_in_order(low, np.arange(low.n_rows), b),
            sptrsv_levelwise,
            sptrsv_transpose_levelwise,
            sptrsv_reference,
            lambda low, b: gauss_seidel_in_order(low, np.arange(low.n_rows), b),
        ],
        ids=["execute_in_order", "levelwise", "transpose_levelwise", "reference", "gauss_seidel"],
    )
    def test_wrong_shape_rejected(self, low, solve, shape):
        n = low.n_rows
        b = {"long": np.ones(n + 1), "short": np.ones(n - 1), "column": np.ones((n, 1))}[shape]
        message = f"b has shape {b.shape}, expected ({n},)"
        with pytest.raises(ValueError, match=re.escape(message)):
            solve(low, b)
