"""Incomplete LU factorisation with zero fill-in (SpILU0).

Computes ``L`` (unit lower) and ``U`` (upper) stored together on the pattern
of ``A`` such that ``(L @ U)[i, j] == A[i, j]`` on every stored position.
The classic row-wise IKJ formulation::

    for i = 0..n-1:
      for k in cols(row i) with k < i, ascending:
        a[i,k] /= a[k,k]                       # L entry
        for j in cols(row i) with j > k:
          if (k, j) stored: a[i,j] -= a[i,k] * a[k,j]

Row ``i`` reads factored row ``k`` for every stored ``A[i, k]``, ``k < i``,
giving the same lower-pattern dependence DAG as the other kernels.  This is
the kernel the paper uses for all of its per-matrix analysis (Figures 6-8)
because it is the hardest of the three to optimise.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..graph.build import dag_from_matrix_lower
from ..graph.dag import DAG
from ..sparse.csr import CSRMatrix, INDEX_DTYPE
from ._trace import trace_self_plus_lower_neighbors
from .base import KernelError, SparseKernel, check_order
from .cost import spilu0_cost
from .spic0 import _pattern_defect

__all__ = ["SpILU0", "spilu0_reference", "spilu0_in_order", "ilu0_defect", "split_lu"]


def _eliminate_row(
    i: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    diag_pos: np.ndarray,
) -> None:
    """Apply all updates to row ``i`` of the in-place LU storage."""
    lo, hi = int(indptr[i]), int(indptr[i + 1])
    cols_i = indices[lo:hi]
    row_i = data[lo:hi]  # view: updates write through
    n_lower = int(np.searchsorted(cols_i, i))
    for t in range(n_lower):
        k = int(cols_i[t])
        dk = data[diag_pos[k]]
        if dk == 0.0:
            raise KernelError(f"spilu0: zero pivot at row {k}")
        lik = row_i[t] / dk
        row_i[t] = lik
        # subtract lik * U(k, j) for stored j > k present in row i
        klo, khi = int(indptr[k]), int(indptr[k + 1])
        cols_k = indices[klo:khi]
        start = int(np.searchsorted(cols_k, k)) + 1  # strictly upper part of row k
        if start >= khi - klo:
            continue
        upper_cols = cols_k[start:]
        upper_vals = data[klo + start : khi]
        pos = np.searchsorted(cols_i, upper_cols)
        pos_c = np.minimum(pos, hi - lo - 1)
        match = cols_i[pos_c] == upper_cols
        if match.any():
            row_i[pos_c[match]] -= lik * upper_vals[match]


def _diag_positions(a: CSRMatrix) -> np.ndarray:
    """Flat index of each diagonal entry in the CSR data array."""
    n = a.n_rows
    diag_pos = np.empty(n, dtype=INDEX_DTYPE)
    for i in range(n):
        lo, hi = a.indptr[i], a.indptr[i + 1]
        k = np.searchsorted(a.indices[lo:hi], i)
        if k >= hi - lo or a.indices[lo + k] != i:
            raise KernelError(f"spilu0: row {i} is missing its diagonal entry")
        diag_pos[i] = lo + k
    return diag_pos


def spilu0_reference(a: CSRMatrix) -> CSRMatrix:
    """Sequential ILU(0); returns the combined LU factor on ``a``'s pattern."""
    diag_pos = _diag_positions(a)
    data = a.data.copy()
    for i in range(a.n_rows):
        _eliminate_row(i, a.indptr, a.indices, data, diag_pos)
    return a.with_data(data)


def spilu0_in_order(a: CSRMatrix, order: np.ndarray) -> CSRMatrix:
    """ILU(0) with rows processed in ``order``, checked once against every dependence."""
    order = check_order(a, order, "spilu0", "row {i} eliminated before rows {missing}")
    diag_pos = _diag_positions(a)
    data = a.data.copy()
    for i in order.tolist():
        _eliminate_row(i, a.indptr, a.indices, data, diag_pos)
    return a.with_data(data)


def split_lu(factor: CSRMatrix) -> tuple:
    """Split the combined in-place factor into scipy ``(L, U)`` matrices.

    ``L`` carries a unit diagonal; ``U`` includes the stored diagonal.
    """
    import scipy.sparse as sp

    n = factor.n_rows
    rows = np.repeat(np.arange(n, dtype=INDEX_DTYPE), factor.row_nnz())
    cols, vals = factor.indices, factor.data
    lower = cols < rows
    upper = ~lower
    eye = np.arange(n, dtype=INDEX_DTYPE)
    l = sp.csr_matrix(
        (
            np.concatenate([vals[lower], np.ones(n)]),
            (np.concatenate([rows[lower], eye]), np.concatenate([cols[lower], eye])),
        ),
        shape=(n, n),
    )
    u = sp.csr_matrix((vals[upper], (rows[upper], cols[upper])), shape=(n, n))
    return l, u


def ilu0_defect(a: CSRMatrix, factor: CSRMatrix) -> float:
    """Max relative defect ``|(L U - A)[i, j]|`` over the stored pattern of ``a``."""
    l, u = split_lu(factor)
    return _pattern_defect(a, (l @ u).tocsr())


class SpILU0(SparseKernel):
    """The SpILU0 kernel object (inspector + executor interface)."""

    name = "spilu0"

    def dag(self, a: CSRMatrix) -> DAG:
        """Dependence DAG from the strictly-lower pattern of ``a``."""
        return dag_from_matrix_lower(a)

    def cost(self, a: CSRMatrix) -> np.ndarray:
        return spilu0_cost(a)

    def memory_trace(self, a: CSRMatrix, *, line_elems: int = 8) -> Tuple[np.ndarray, np.ndarray]:
        """Trace over the full-pattern in-place factor storage."""
        return trace_self_plus_lower_neighbors(a, line_elems=line_elems)

    def memory_model(self, a: CSRMatrix, g: DAG | None = None, *, line_elems: int = 8):
        """Edge-based memory model over the full-pattern factor storage."""
        from .memory import factor_memory_model

        return factor_memory_model(a, g if g is not None else self.dag(a), line_elems=line_elems)

    def reference(self, a: CSRMatrix, b: np.ndarray | None = None) -> CSRMatrix:
        return spilu0_reference(a)

    def execute_in_order(
        self, a: CSRMatrix, order: np.ndarray, b: np.ndarray | None = None
    ) -> CSRMatrix:
        return spilu0_in_order(a, order)

    def verify(self, a: CSRMatrix, result, b: np.ndarray | None = None) -> float:
        return ilu0_defect(a, result)
