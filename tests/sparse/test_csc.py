"""Tests for the CSC container and the column-oriented solve."""

import pickle

import numpy as np
import pytest

from repro.kernels import KernelError
from repro.sparse import csr_from_dense, lower_triangle, tridiagonal_spd
from repro.sparse.csc import (
    CSCMatrix,
    csc_from_csr,
    csr_from_csc,
    sptrsv_csc_in_order,
    sptrsv_csc_reference,
)


@pytest.fixture
def a(rng):
    dense = rng.random((6, 5))
    dense[dense < 0.5] = 0.0
    return csr_from_dense(dense)


class TestContainer:
    def test_roundtrip(self, a):
        csc = csc_from_csr(a)
        assert csr_from_csc(csc) == a
        np.testing.assert_array_equal(csc.to_dense(), a.to_dense())

    def test_column_access(self, a):
        csc = csc_from_csr(a)
        dense = a.to_dense()
        for j in range(a.n_cols):
            rows, vals = csc.col(j)
            np.testing.assert_array_equal(rows, np.nonzero(dense[:, j])[0])
            np.testing.assert_array_equal(vals, dense[rows, j])

    def test_col_nnz(self, a):
        csc = csc_from_csr(a)
        np.testing.assert_array_equal(
            csc.col_nnz(), (a.to_dense() != 0).sum(axis=0)
        )

    def test_matvec(self, a, rng):
        csc = csc_from_csr(a)
        x = rng.random(a.n_cols)
        np.testing.assert_allclose(csc.matvec(x), a.to_dense() @ x)

    def test_matvec_shape_check(self, a):
        with pytest.raises(ValueError):
            csc_from_csr(a).matvec(np.ones(a.n_cols + 1))

    def test_validation(self):
        with pytest.raises(ValueError, match="indptr"):
            CSCMatrix(2, 2, [0, 1], [0], [1.0])
        with pytest.raises(ValueError, match="range"):
            CSCMatrix(2, 2, [0, 1, 1], [5], [1.0])
        with pytest.raises(ValueError, match="increasing"):
            CSCMatrix(3, 1, [0, 2], [1, 1], [1.0, 2.0])

    def test_readonly_and_unhashable(self, a):
        csc = csc_from_csr(a)
        with pytest.raises(ValueError):
            csc.data[0] = 1.0
        with pytest.raises(TypeError):
            hash(csc)

    def test_equality(self, a):
        assert csc_from_csr(a) == csc_from_csr(a)

    def test_view_of_writeable_memory_is_copied(self):
        d = np.array([1.0, 2.0, 3.0])
        rows = np.array([0, 1, 7])
        c = CSCMatrix(2, 2, [0, 1, 2], rows[:2], d[:2])
        d[0] = 99.0
        rows[1] = 0
        assert c.data.tolist() == [1.0, 2.0]
        assert c.indices.tolist() == [0, 1]
        assert d.flags.writeable and rows.flags.writeable

    def test_unpickled_matrix_is_read_only(self, a):
        csc = csc_from_csr(a)
        back = pickle.loads(pickle.dumps(csc))
        assert back == csc
        for arr in (back.indptr, back.indices, back.data):
            assert not arr.flags.writeable

    def test_owned_arrays_are_frozen_in_place(self):
        d = np.array([1.0, 2.0])
        c = CSCMatrix(2, 2, [0, 1, 2], [0, 1], d)
        assert np.shares_memory(c.data, d) and not d.flags.writeable


class TestCscSolve:
    def test_matches_row_solver(self, mesh, rng):
        low = lower_triangle(mesh)
        csc = csc_from_csr(low)
        b = rng.normal(size=mesh.n_rows)
        from repro.kernels import sptrsv_reference

        np.testing.assert_allclose(
            sptrsv_csc_reference(csc, b), sptrsv_reference(low, b), rtol=1e-12
        )

    def test_in_order_topological(self, irregular, rng):
        from repro.graph import topological_order
        from repro.kernels import SpTRSV

        low = lower_triangle(irregular)
        csc = csc_from_csr(low)
        order = topological_order(SpTRSV().dag(low))
        b = rng.normal(size=irregular.n_rows)
        np.testing.assert_allclose(
            sptrsv_csc_in_order(csc, order, b),
            sptrsv_csc_reference(csc, b),
            rtol=1e-10,
        )

    def test_scheduled_order(self, mesh_nd, rng):
        from repro.core import hdagg
        from repro.kernels import SpTRSV

        low = lower_triangle(mesh_nd)
        kernel = SpTRSV()
        g = kernel.dag(low)
        s = hdagg(g, kernel.cost(low), 4)
        b = rng.normal(size=mesh_nd.n_rows)
        got = sptrsv_csc_in_order(csc_from_csr(low), s.execution_order(), b)
        np.testing.assert_allclose(got, kernel.reference(low, b), rtol=1e-10)

    def test_violation_detected(self, mesh, rng):
        low = lower_triangle(mesh)
        csc = csc_from_csr(low)
        order = np.arange(mesh.n_rows)[::-1].copy()
        with pytest.raises(KernelError, match="finalised before"):
            sptrsv_csc_in_order(csc, order, rng.normal(size=mesh.n_rows))
        repeated = np.zeros(mesh.n_rows, dtype=np.int64)
        with pytest.raises(KernelError, match="permutation"):
            sptrsv_csc_in_order(csc, repeated, rng.normal(size=mesh.n_rows))

    def test_missing_diagonal(self):
        bad = CSCMatrix(2, 2, [0, 1, 2], [1, 1], [1.0, 1.0])
        with pytest.raises(ValueError, match="diagonal"):
            sptrsv_csc_reference(bad, np.ones(2))

    def test_upper_entries_rejected(self):
        bad = CSCMatrix(2, 2, [0, 2, 3], [0, 1, 1], [1.0, 1.0, 1.0])
        # column 1 of a LOWER matrix cannot contain row 0; build one that does
        worse = CSCMatrix(2, 2, [0, 1, 3], [0, 0, 1], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            sptrsv_csc_reference(worse, np.ones(2))

    @pytest.mark.parametrize("extra", [2, -1])
    def test_in_order_rejects_wrong_length_rhs(self, extra):
        low = csc_from_csr(lower_triangle(tridiagonal_spd(9, seed=0)))
        b = np.ones(9 + extra)
        with pytest.raises(ValueError, match=r"b has shape \(\d+,\), expected \(9,\)"):
            sptrsv_csc_in_order(low, np.arange(9), b)
        with pytest.raises(ValueError, match=r"b has shape \(\d+,\), expected \(9,\)"):
            sptrsv_csc_reference(low, b)
