"""Gauss-Seidel sweep: a fourth kernel with the same dependence class.

A forward Gauss-Seidel relaxation::

    for i in 0..n-1:
        x[i] = (b[i] - sum_{j < i} A[i,j] x_new[j]
                     - sum_{j > i} A[i,j] x_old[j]) / A[i,i]

reads freshly-updated values for columns below the diagonal — exactly the
loop-carried dependence pattern of SpTRSV, so the same inspectors schedule
it (SpMP's original evaluation includes Gauss-Seidel alongside the
triangular solve).  The kernel extends the framework beyond the paper's
three kernels and is used by the smoother example.

In-place semantics: upper-triangle reads see *old* values only when the
producing iteration has not run yet.  For a scheduled (out-of-order but
dependence-respecting) execution this is guaranteed for lower reads; upper
reads intentionally see whatever mix the order produced — the classic
"chaotic upper part" of parallel Gauss-Seidel.  To keep results
order-independent and testable, this implementation uses the *two-vector*
formulation: upper reads always come from ``x_old``, lower reads from the
new vector.  That makes any topological order produce bitwise-identical
sweeps (per-row reduction order fixed by the CSR layout).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..graph.build import dag_from_matrix_lower
from ..graph.dag import DAG
from ..sparse.csr import CSRMatrix, VALUE_DTYPE
from .base import KernelError, SparseKernel, check_order, check_rhs
from .memory import MemoryModel

__all__ = ["GaussSeidel", "gauss_seidel_sweep", "gauss_seidel_in_order"]


def _check_diagonal(a: CSRMatrix) -> None:
    if not a.is_square:
        raise KernelError("gauss-seidel: matrix must be square")
    if not a.has_full_diagonal():
        raise KernelError("gauss-seidel: missing diagonal entry")
    if np.any(a.diagonal() == 0.0):
        raise KernelError("gauss-seidel: zero on the diagonal")


def _sweep(a: CSRMatrix, rows, b: np.ndarray, x_old: np.ndarray | None) -> np.ndarray:
    """Relax the rows of ``a`` in ``rows``: the one row body of both sweeps."""
    n = a.n_rows
    x_old = np.zeros(n, dtype=VALUE_DTYPE) if x_old is None else np.asarray(x_old, dtype=VALUE_DTYPE)
    x_new = np.empty(n, dtype=VALUE_DTYPE)
    indptr, indices, data = a.indptr, a.indices, a.data
    for i in rows:
        lo, hi = indptr[i], indptr[i + 1]
        cols = indices[lo:hi]
        vals = data[lo:hi]
        below = cols < i
        above = cols > i
        k = int(np.searchsorted(cols, i))
        s = b[i] - vals[below] @ x_new[cols[below]] - vals[above] @ x_old[cols[above]]
        x_new[i] = s / vals[k]
    return x_new


def gauss_seidel_sweep(
    a: CSRMatrix, b: np.ndarray, x_old: np.ndarray | None = None
) -> np.ndarray:
    """One sequential forward sweep; returns the new iterate."""
    _check_diagonal(a)
    b = check_rhs(b, a.n_rows)
    return _sweep(a, range(a.n_rows), b, x_old)


def gauss_seidel_in_order(
    a: CSRMatrix, order: np.ndarray, b: np.ndarray, x_old: np.ndarray | None = None
) -> np.ndarray:
    """One forward sweep with rows relaxed in ``order``, checked once beforehand."""
    _check_diagonal(a)
    b = check_rhs(b, a.n_rows)
    order = check_order(a, order, "gauss-seidel", "row {i} relaxed before rows {missing}")
    return _sweep(a, order.tolist(), b, x_old)


class GaussSeidel(SparseKernel):
    """Forward Gauss-Seidel as a schedulable kernel."""

    name = "gauss_seidel"

    def dag(self, a: CSRMatrix) -> DAG:
        """Lower-pattern dependence DAG (new-value reads)."""
        return dag_from_matrix_lower(a)

    def cost(self, a: CSRMatrix) -> np.ndarray:
        """Each relaxation streams its full row once."""
        return a.row_nnz().astype(np.float64)

    def memory_trace(self, a: CSRMatrix, *, line_elems: int = 8) -> Tuple[np.ndarray, np.ndarray]:
        from ._trace import trace_self_plus_lower_neighbors

        return trace_self_plus_lower_neighbors(a, line_elems=line_elems)

    def memory_model(self, a: CSRMatrix, g: DAG | None = None, *, line_elems: int = 8) -> MemoryModel:
        """Stream the row; each lower dependence moves one x-line."""
        if g is None:
            g = self.dag(a)
        from .base import lines_of_rows

        per_row, _ = lines_of_rows(a, line_elems=line_elems)
        return MemoryModel(
            stream_lines=per_row.astype(np.float64) + 1.0,
            edge_lines=np.ones(g.n_edges, dtype=np.float64),
        )

    def reference(self, a: CSRMatrix, b: np.ndarray | None = None) -> np.ndarray:
        if b is None:
            b = np.ones(a.n_rows, dtype=VALUE_DTYPE)
        return gauss_seidel_sweep(a, b)

    def execute_in_order(
        self, a: CSRMatrix, order: np.ndarray, b: np.ndarray | None = None
    ) -> np.ndarray:
        if b is None:
            b = np.ones(a.n_rows, dtype=VALUE_DTYPE)
        return gauss_seidel_in_order(a, order, b)

    def verify(self, a: CSRMatrix, result, b: np.ndarray | None = None) -> float:
        """Distance to the sequential sweep (order-independent by design)."""
        if b is None:
            b = np.ones(a.n_rows, dtype=VALUE_DTYPE)
        ref = gauss_seidel_sweep(a, b)
        denom = float(np.linalg.norm(ref)) or 1.0
        return float(np.linalg.norm(np.asarray(result) - ref)) / denom
