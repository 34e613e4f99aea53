"""Unit tests for the CSR container."""

import pickle

import numpy as np
import pytest

from repro.sparse import (
    CSRMatrix,
    INDEX_DTYPE,
    VALUE_DTYPE,
    csr_from_coo,
    csr_from_dense,
    csr_from_scipy,
)


def dense_roundtrip(dense):
    return csr_from_dense(np.asarray(dense, dtype=float))


class TestConstruction:
    def test_basic(self):
        a = CSRMatrix(2, 3, [0, 2, 3], [0, 2, 1], [1.0, 2.0, 3.0])
        assert a.shape == (2, 3)
        assert a.nnz == 3
        np.testing.assert_array_equal(a.to_dense(), [[1, 0, 2], [0, 3, 0]])

    def test_empty_matrix(self):
        a = CSRMatrix(0, 0, [0], [], [])
        assert a.nnz == 0
        assert a.shape == (0, 0)

    def test_empty_rows(self):
        a = CSRMatrix(3, 3, [0, 0, 1, 1], [2], [5.0])
        assert a.row_nnz().tolist() == [0, 1, 0]

    def test_dtypes(self):
        a = dense_roundtrip(np.eye(3))
        assert a.indptr.dtype == INDEX_DTYPE
        assert a.indices.dtype == INDEX_DTYPE
        assert a.data.dtype == VALUE_DTYPE

    def test_arrays_readonly(self):
        a = dense_roundtrip(np.eye(3))
        with pytest.raises(ValueError):
            a.data[0] = 9.0
        with pytest.raises(ValueError):
            a.indices[0] = 1

    def test_view_of_writeable_memory_is_copied(self):
        buf = np.array([1.0, 2.0, 3.0])
        cols = np.array([0, 1, 7])
        a = CSRMatrix(2, 2, [0, 1, 2], cols[:2], buf[:2])
        buf[0] = 99.0
        cols[1] = 0
        assert a.data.tolist() == [1.0, 2.0]
        assert a.indices.tolist() == [0, 1]
        assert buf.flags.writeable and cols.flags.writeable

    def test_owned_and_read_only_arrays_are_not_copied(self):
        data = np.array([1.0, 2.0])
        a = CSRMatrix(2, 2, [0, 1, 2], [0, 1], data)
        assert np.shares_memory(a.data, data) and not data.flags.writeable
        b = a.with_data([3.0, 4.0])
        assert np.shares_memory(b.indptr, a.indptr)
        assert np.shares_memory(b.indices, a.indices)
        frozen = np.array([5.0, 6.0, 7.0])
        frozen.flags.writeable = False
        c = CSRMatrix(2, 2, [0, 1, 2], [0, 1], frozen[1:])
        assert np.shares_memory(c.data, frozen)

    def test_unpickled_matrix_is_read_only(self):
        a = dense_roundtrip([[2.0, 0.0], [1.0, 3.0]])
        b = pickle.loads(pickle.dumps(a))
        assert b == a
        for arr in (b.indptr, b.indices, b.data):
            assert not arr.flags.writeable

    def test_bad_indptr_length(self):
        with pytest.raises(ValueError, match="indptr"):
            CSRMatrix(2, 2, [0, 1], [0], [1.0])

    def test_indptr_not_starting_at_zero(self):
        with pytest.raises(ValueError, match="indptr"):
            CSRMatrix(1, 2, [1, 2], [0], [1.0])

    def test_decreasing_indptr(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            CSRMatrix(2, 2, [0, 2, 1], [0, 1], [1.0, 2.0])

    def test_column_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            CSRMatrix(1, 2, [0, 1], [5], [1.0])

    def test_unsorted_columns_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            CSRMatrix(1, 3, [0, 2], [2, 0], [1.0, 2.0])

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            CSRMatrix(1, 3, [0, 2], [1, 1], [1.0, 2.0])

    def test_row_boundary_allows_reset(self):
        # col sequence 2 | 0 across a row boundary is legal
        a = CSRMatrix(2, 3, [0, 1, 2], [2, 0], [1.0, 2.0])
        assert a.nnz == 2


class TestAccessors:
    def test_row_view(self):
        a = dense_roundtrip([[1, 0, 2], [0, 0, 0], [3, 4, 5]])
        cols, vals = a.row(2)
        np.testing.assert_array_equal(cols, [0, 1, 2])
        np.testing.assert_array_equal(vals, [3, 4, 5])

    def test_iter_rows(self):
        a = dense_roundtrip([[1, 0], [0, 2]])
        rows = list(a.iter_rows())
        assert rows[0][0] == 0 and rows[1][0] == 1
        assert rows[0][1].tolist() == [0]

    def test_diagonal(self):
        a = dense_roundtrip([[1, 2], [0, 0]])
        np.testing.assert_array_equal(a.diagonal(), [1, 0])

    def test_has_full_diagonal(self):
        assert dense_roundtrip(np.eye(4)).has_full_diagonal()
        assert not dense_roundtrip([[1, 0], [1, 0]]).has_full_diagonal()

    def test_row_nnz(self):
        a = dense_roundtrip([[1, 1, 1], [0, 0, 0], [1, 0, 0]])
        assert a.row_nnz().tolist() == [3, 0, 1]


class TestDerived:
    def test_transpose_roundtrip(self, rng):
        dense = rng.random((7, 5))
        dense[dense < 0.5] = 0.0
        a = csr_from_dense(dense)
        np.testing.assert_allclose(a.transpose().to_dense(), dense.T)
        assert a.transpose().transpose() == a

    def test_transpose_empty(self):
        a = CSRMatrix(2, 3, [0, 0, 0], [], [])
        assert a.transpose().shape == (3, 2)

    def test_matvec_matches_dense(self, rng):
        dense = rng.random((6, 6))
        dense[dense < 0.4] = 0.0
        a = csr_from_dense(dense)
        x = rng.random(6)
        np.testing.assert_allclose(a.matvec(x), dense @ x)

    def test_matvec_shape_check(self):
        a = dense_roundtrip(np.eye(3))
        with pytest.raises(ValueError):
            a.matvec(np.ones(4))

    def test_with_data(self):
        a = dense_roundtrip(np.eye(2))
        b = a.with_data(np.array([5.0, 6.0]))
        assert b.data.tolist() == [5.0, 6.0]
        assert a.data.tolist() == [1.0, 1.0]  # original untouched

    def test_with_data_length_check(self):
        a = dense_roundtrip(np.eye(2))
        with pytest.raises(ValueError):
            a.with_data(np.ones(3))

    def test_copy_is_deep(self):
        a = dense_roundtrip(np.eye(2))
        b = a.copy()
        assert b == a
        assert b.data is not a.data

    def test_permute_symmetric(self, rng):
        dense = rng.random((5, 5))
        dense = dense + dense.T
        a = csr_from_dense(dense)
        perm = np.array([3, 1, 4, 0, 2])
        p = a.permute_symmetric(perm)
        np.testing.assert_allclose(p.to_dense(), dense[np.ix_(perm, perm)])

    def test_permute_requires_square(self):
        a = dense_roundtrip(np.ones((2, 3)))
        with pytest.raises(ValueError):
            a.permute_symmetric(np.array([0, 1]))

    def test_permute_rejects_non_permutation(self):
        a = dense_roundtrip(np.eye(3))
        with pytest.raises(ValueError):
            a.permute_symmetric(np.array([0, 0, 1]))

    def test_scipy_roundtrip(self, rng):
        dense = rng.random((4, 6))
        dense[dense < 0.5] = 0.0
        a = csr_from_dense(dense)
        assert csr_from_scipy(a.to_scipy()) == a


class TestFromCoo:
    def test_sorting(self):
        a = csr_from_coo(2, 2, [1, 0], [0, 1], [3.0, 4.0])
        np.testing.assert_array_equal(a.to_dense(), [[0, 4], [3, 0]])

    def test_duplicates_summed(self):
        a = csr_from_coo(1, 1, [0, 0], [0, 0], [1.0, 2.0])
        assert a.to_dense()[0, 0] == 3.0

    def test_duplicates_rejected_when_disabled(self):
        with pytest.raises(ValueError, match="duplicate"):
            csr_from_coo(1, 1, [0, 0], [0, 0], [1.0, 2.0], sum_duplicates=False)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            csr_from_coo(2, 2, [2], [0], [1.0])
        with pytest.raises(ValueError):
            csr_from_coo(2, 2, [0], [-1], [1.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            csr_from_coo(2, 2, [0, 1], [0], [1.0])

    def test_empty(self):
        a = csr_from_coo(3, 3, [], [], [])
        assert a.nnz == 0


class TestEquality:
    def test_eq(self):
        a = dense_roundtrip(np.eye(2))
        b = dense_roundtrip(np.eye(2))
        assert a == b

    def test_neq_values(self):
        a = dense_roundtrip(np.eye(2))
        b = a.with_data(np.array([2.0, 1.0]))
        assert a != b

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(dense_roundtrip(np.eye(2)))

    def test_csr_from_dense_tolerance(self):
        a = csr_from_dense(np.array([[1.0, 1e-12], [0.0, 2.0]]), tol=1e-9)
        assert a.nnz == 2
