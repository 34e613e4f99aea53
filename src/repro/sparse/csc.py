"""Compressed Sparse Column (CSC) matrix container.

SuiteSparse, Sympiler, and most direct solvers are CSC-first; this
container completes the substrate so CSC-shaped workloads can be expressed
natively.  It shares the conventions of :class:`~repro.sparse.csr.CSRMatrix`
(int64 indices, float64 values, sorted unique indices per column, read-only
arrays) and converts losslessly in both directions.

The column-oriented (left-looking) triangular solve lives here too: it is
the dual of the CSR row solve — once ``x[j]`` is final, column ``j``'s
entries are scattered into the pending right-hand side.  Its dependence
DAG is identical (edge ``j -> i`` per stored ``L[i, j]``), so every
scheduler output drives both executors unchanged.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .csr import CSRMatrix, INDEX_DTYPE, VALUE_DTYPE, check_rhs

__all__ = ["CSCMatrix", "csc_from_csr", "csr_from_csc", "sptrsv_csc_reference", "sptrsv_csc_in_order"]


class CSCMatrix:
    """An ``n_rows x n_cols`` sparse matrix in CSC format.

    Column ``j`` occupies ``indices[indptr[j]:indptr[j+1]]`` (row ids,
    strictly increasing) with values aligned in ``data``.
    """

    __slots__ = ("n_rows", "n_cols", "indptr", "indices", "data")

    def __init__(self, n_rows: int, n_cols: int, indptr, indices, data, *, check: bool = True):
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.indptr = np.ascontiguousarray(indptr, dtype=INDEX_DTYPE)
        self.indices = np.ascontiguousarray(indices, dtype=INDEX_DTYPE)
        self.data = np.ascontiguousarray(data, dtype=VALUE_DTYPE)
        if check:
            self._validate()
        for arr in (self.indptr, self.indices, self.data):
            arr.flags.writeable = False

    def _validate(self) -> None:
        if self.indptr.shape[0] != self.n_cols + 1 or self.indptr[0] != 0:
            raise ValueError("bad indptr")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        nnz = int(self.indptr[-1])
        if self.indices.shape[0] != nnz or self.data.shape[0] != nnz:
            raise ValueError("indices/data length mismatch")
        if nnz:
            if self.indices.min() < 0 or self.indices.max() >= self.n_rows:
                raise ValueError("row index out of range")
            if nnz > 1:
                interior = np.ones(nnz - 1, dtype=bool)
                boundaries = self.indptr[1:-1]
                interior[boundaries[(boundaries > 0) & (boundaries < nnz)] - 1] = False
                if np.any((np.diff(self.indices) <= 0) & interior):
                    raise ValueError("row indices must be strictly increasing per column")

    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def col(self, j: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, values)`` views of column ``j``."""
        lo, hi = self.indptr[j], self.indptr[j + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def col_nnz(self) -> np.ndarray:
        return np.diff(self.indptr)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=VALUE_DTYPE)
        col_of = np.repeat(np.arange(self.n_cols, dtype=INDEX_DTYPE), np.diff(self.indptr))
        out[self.indices, col_of] = self.data
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` by column-scaled scatter (the CSC-natural kernel)."""
        x = np.asarray(x, dtype=VALUE_DTYPE)
        if x.shape != (self.n_cols,):
            raise ValueError(f"x has shape {x.shape}, expected ({self.n_cols},)")
        col_of = np.repeat(np.arange(self.n_cols, dtype=INDEX_DTYPE), np.diff(self.indptr))
        out = np.zeros(self.n_rows, dtype=VALUE_DTYPE)
        np.add.at(out, self.indices, self.data * x[col_of])
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, CSCMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.data, other.data)
        )

    def __hash__(self):
        raise TypeError("CSCMatrix is not hashable")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSCMatrix(shape={self.shape}, nnz={self.nnz})"


def csc_from_csr(a: CSRMatrix) -> CSCMatrix:
    """Convert CSR -> CSC (the transpose trick with the shape kept)."""
    t = a.transpose()  # CSR of A^T == CSC arrays of A
    return CSCMatrix(a.n_rows, a.n_cols, t.indptr, t.indices, t.data, check=False)


def csr_from_csc(a: CSCMatrix) -> CSRMatrix:
    """Convert CSC -> CSR."""
    as_csr_of_t = CSRMatrix(a.n_cols, a.n_rows, a.indptr, a.indices, a.data, check=False)
    return as_csr_of_t.transpose()


def sptrsv_csc_reference(low: CSCMatrix, b: np.ndarray) -> np.ndarray:
    """Column-oriented (left-looking) forward substitution on CSC ``L``.

    The dual of the CSR row kernel: finalise ``x[j]``, then scatter column
    ``j`` into the pending right-hand side.  Diagonal-first column layout
    is guaranteed by sortedness (``rows >= j`` in a lower-triangular CSC).
    """
    if not low.is_square:
        raise ValueError("sptrsv: matrix must be square")
    n = low.n_cols
    x = check_rhs(b, n).copy()
    indptr, indices, data = low.indptr, low.indices, low.data
    for j in range(n):
        lo, hi = indptr[j], indptr[j + 1]
        if hi == lo or indices[lo] != j:
            raise ValueError(f"sptrsv: column {j} is missing its diagonal entry")
        if np.any(indices[lo:hi] < j):
            raise ValueError("sptrsv: matrix has entries above the diagonal")
        x[j] /= data[lo]
        rows = indices[lo + 1 : hi]
        x[rows] -= data[lo + 1 : hi] * x[j]
    return x


def sptrsv_csc_in_order(low: CSCMatrix, order: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Left-looking solve with columns finalised in ``order``.

    Correctness needs the *scatter* of column ``j`` to land before any
    dependent ``x[i]`` is finalised — the same DAG constraint as the row
    kernel, so the whole order is checked once, by the kernels' own
    :func:`~repro.kernels.base.check_order`, before any arithmetic.
    """
    from ..kernels.base import check_order

    n = low.n_cols
    order = check_order(csr_from_csc(low), order, "sptrsv", "column {i} finalised before {missing}")
    x = check_rhs(b, n).copy()
    indptr, indices, data = low.indptr, low.indices, low.data
    for j in order:
        lo, hi = indptr[j], indptr[j + 1]
        if hi == lo or indices[lo] != j:
            raise ValueError(f"sptrsv: column {int(j)} is missing its diagonal entry")
        x[j] /= data[lo]
        rows = indices[lo + 1 : hi]
        x[rows] -= data[lo + 1 : hi] * x[j]
    return x
