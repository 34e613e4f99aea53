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

The reference and the schedule executor run this loop as one row body on
Python scalars (:func:`_eliminate_ikj`), the reference in natural order and
the executor in its checked order.  It has no reduction, so every valid
order gives the same factor (``==``).  A zero or NaN pivot raises
:class:`~repro.kernels.base.KernelError`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..graph.build import dag_from_matrix_lower
from ..graph.dag import DAG
from ..sparse.csr import CSRMatrix, INDEX_DTYPE, VALUE_DTYPE
from ._trace import trace_self_plus_lower_neighbors
from .base import KernelError, SparseKernel, check_order
from .cost import spilu0_cost
from .spic0 import _pattern_defect

__all__ = ["SpILU0", "spilu0_reference", "spilu0_in_order", "ilu0_defect", "split_lu"]


def _diag_positions(a: CSRMatrix) -> np.ndarray:
    """Flat index of each diagonal entry in the CSR data array (one pass)."""
    n = a.n_rows
    rows = np.repeat(np.arange(n, dtype=INDEX_DTYPE), a.row_nnz())
    on_diag = a.indices == rows
    diag_pos = np.flatnonzero(on_diag).astype(INDEX_DTYPE)
    if diag_pos.shape[0] != n:
        found = np.zeros(n, dtype=bool)
        found[rows[on_diag]] = True
        i = int(np.argmin(found))
        raise KernelError(f"spilu0: row {i} is missing its diagonal entry")
    return diag_pos


def _eliminate_ikj(a: CSRMatrix, rows) -> CSRMatrix:
    """Row-wise IKJ ILU(0) of ``a``, rows eliminated in ``rows``.

    The one row body of the reference and the schedule executor, on Python
    scalars (``tolist()`` once per call).  Row ``i`` finds its columns with
    a ``col -> pos`` map: a dense list filled from the row and cleared after
    it, which is faster here than a per-row dict.  Every update is one
    multiply and one subtract on one entry, so no sum depends on the order.
    Each row's pivot is checked once the row is finished, so a zero or NaN
    pivot raises :class:`KernelError` even on a row no later row reads.
    """
    diag = _diag_positions(a).tolist()
    indptr, indices, data = a.indptr.tolist(), a.indices.tolist(), a.data.tolist()
    pos_of = [-1] * a.n_cols
    for i in rows:
        lo, hi = indptr[i], indptr[i + 1]
        for p in range(lo, hi):
            pos_of[indices[p]] = p
        for t in range(lo, diag[i]):
            k = indices[t]
            lik = data[t] / data[diag[k]]  # row k's pivot, checked when k finished
            data[t] = lik
            # subtract lik * U(k, j) for stored j > k present in row i
            for q in range(diag[k] + 1, indptr[k + 1]):
                p = pos_of[indices[q]]
                if p >= 0:
                    data[p] -= lik * data[q]
        for p in range(lo, hi):
            pos_of[indices[p]] = -1
        pivot = data[diag[i]]
        if pivot == 0.0:
            raise KernelError(f"spilu0: zero pivot at row {i}")
        if pivot != pivot:
            raise KernelError(f"spilu0: NaN pivot at row {i}")
    return a.with_data(np.array(data, dtype=VALUE_DTYPE))


def spilu0_reference(a: CSRMatrix) -> CSRMatrix:
    """Sequential ILU(0); returns the combined LU factor on ``a``'s pattern."""
    return _eliminate_ikj(a, range(a.n_rows))


def spilu0_in_order(a: CSRMatrix, order: np.ndarray) -> CSRMatrix:
    """ILU(0) with rows processed in ``order``, checked once against every dependence."""
    order = check_order(a, order, "spilu0", "row {i} eliminated before rows {missing}")
    return _eliminate_ikj(a, order.tolist())


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
