"""Incomplete Cholesky factorisation with zero fill-in (SpIC0).

Computes a lower-triangular ``L`` with the sparsity of ``tril(A)`` such that
``(L @ L.T)[i, j] == A[i, j]`` on every stored position of the lower pattern
(the defining IC(0) property).  Row ``i`` of ``L`` needs the finished rows
``j`` for every stored ``A[i, j]`` with ``j < i`` — the same dependence DAG
as SpTRSV on the lower triangle, which is why the paper drives all three
kernels through one inspector.

The paper selects SPD inputs precisely so this factorisation exists; a
non-positive pivot raises :class:`~repro.kernels.base.KernelError` rather
than silently producing NaNs.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..graph.build import dag_from_matrix_lower
from ..graph.dag import DAG
from ..sparse.csr import CSRMatrix, VALUE_DTYPE
from ..sparse.triangular import lower_triangle
from ._trace import trace_self_plus_lower_neighbors
from .base import KernelError, SparseKernel, check_order
from .cost import spic0_cost

__all__ = ["SpIC0", "spic0_reference", "spic0_in_order", "ic0_defect"]


def _sparse_prefix_dot(
    cols_a: np.ndarray, vals_a: np.ndarray, cols_b: np.ndarray, vals_b: np.ndarray, bound: int
) -> float:
    """Dot product of two sparse rows over columns ``< bound`` (sorted inputs)."""
    ka = int(np.searchsorted(cols_a, bound))
    kb = int(np.searchsorted(cols_b, bound))
    ca, va = cols_a[:ka], vals_a[:ka]
    cb, vb = cols_b[:kb], vals_b[:kb]
    if ka == 0 or kb == 0:
        return 0.0
    pos = np.searchsorted(cb, ca)
    pos_c = np.minimum(pos, kb - 1)
    match = cb[pos_c] == ca
    if not match.any():
        return 0.0
    return float(va[match] @ vb[pos_c[match]])


def _factor_row(
    i: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    a_data: np.ndarray,
    l_data: np.ndarray,
) -> None:
    """Factor row ``i`` of the lower CSR in place (up-looking)."""
    lo, hi = int(indptr[i]), int(indptr[i + 1])
    cols_i = indices[lo:hi]
    # stored lower row always ends with the diagonal (cols sorted, col <= i)
    if hi == lo or cols_i[-1] != i:
        raise KernelError(f"spic0: row {i} is missing its diagonal entry")
    for t in range(hi - lo - 1):
        j = int(cols_i[t])
        jlo, jhi = int(indptr[j]), int(indptr[j + 1])
        cols_j = indices[jlo:jhi]
        s = a_data[lo + t] - _sparse_prefix_dot(
            cols_i, l_data[lo:hi], cols_j, l_data[jlo:jhi], j
        )
        djj = l_data[jhi - 1]
        l_data[lo + t] = s / djj
    off = l_data[lo : hi - 1]
    pivot = a_data[hi - 1] - float(off @ off)
    if pivot <= 0.0:
        raise KernelError(f"spic0: non-positive pivot {pivot!r} at row {i} (matrix not SPD enough)")
    l_data[hi - 1] = np.sqrt(pivot)


def spic0_reference(a: CSRMatrix) -> CSRMatrix:
    """Sequential IC(0): returns lower-triangular ``L`` on ``tril(A)``'s pattern."""
    low = lower_triangle(a)
    if not low.has_full_diagonal():
        raise KernelError("spic0: matrix must have a full diagonal")
    l_data = np.zeros(low.nnz, dtype=VALUE_DTYPE)
    for i in range(low.n_rows):
        _factor_row(i, low.indptr, low.indices, low.data, l_data)
    return low.with_data(l_data)


def spic0_in_order(a: CSRMatrix, order: np.ndarray) -> CSRMatrix:
    """IC(0) with rows factored in ``order``, checked once against every dependence."""
    low = lower_triangle(a)
    if not low.has_full_diagonal():
        raise KernelError("spic0: matrix must have a full diagonal")
    order = check_order(low, order, "spic0", "row {i} factored before rows {missing}")
    l_data = np.zeros(low.nnz, dtype=VALUE_DTYPE)
    for i in order.tolist():
        _factor_row(i, low.indptr, low.indices, low.data, l_data)
    return low.with_data(l_data)


def ic0_defect(a: CSRMatrix, factor: CSRMatrix) -> float:
    """Max relative defect ``|(L L^T - A)[i, j]|`` over the lower pattern.

    Zero (to rounding) certifies a correct IC(0) factor.
    """
    ls = factor.to_scipy()
    return _pattern_defect(lower_triangle(a), (ls @ ls.T).tocsr())


def _pattern_defect(a: CSRMatrix, prod) -> float:
    """Max ``|prod[i, j] - a[i, j]|`` over the stored pattern of ``a``, relative
    to ``max |a|``.

    ``prod`` is a scipy CSR product; its entries are found with one keyed
    lookup (key ``i * n + j``) for the whole pattern, and a position ``prod``
    does not store counts as zero.
    """
    prod.sort_indices()
    n = a.n_cols
    rows = np.arange(a.n_rows, dtype=np.int64)
    keys = np.repeat(rows, np.diff(prod.indptr)) * n + prod.indices
    wanted = np.repeat(rows, a.row_nnz()) * n + a.indices
    got = np.zeros(a.nnz, dtype=VALUE_DTYPE)
    if keys.shape[0]:
        pos = np.minimum(np.searchsorted(keys, wanted), keys.shape[0] - 1)
        hit = keys[pos] == wanted
        got[hit] = prod.data[pos[hit]]
    scale = float(np.abs(a.data).max()) or 1.0
    return float(np.abs(got - a.data).max(initial=0.0)) / scale


class SpIC0(SparseKernel):
    """The SpIC0 kernel object (inspector + executor interface)."""

    name = "spic0"

    def dag(self, a: CSRMatrix) -> DAG:
        """Dependence DAG from the strictly-lower pattern of ``a``."""
        return dag_from_matrix_lower(a)

    def cost(self, a: CSRMatrix) -> np.ndarray:
        return spic0_cost(a)

    def memory_trace(self, a: CSRMatrix, *, line_elems: int = 8) -> Tuple[np.ndarray, np.ndarray]:
        """Trace over the lower-triangular factor storage."""
        return trace_self_plus_lower_neighbors(lower_triangle(a), line_elems=line_elems)

    def memory_model(self, a: CSRMatrix, g: DAG | None = None, *, line_elems: int = 8):
        """Edge-based memory model over the lower-triangular factor storage."""
        from .memory import factor_memory_model

        return factor_memory_model(
            lower_triangle(a), g if g is not None else self.dag(a), line_elems=line_elems
        )

    def reference(self, a: CSRMatrix, b: np.ndarray | None = None) -> CSRMatrix:
        return spic0_reference(a)

    def execute_in_order(
        self, a: CSRMatrix, order: np.ndarray, b: np.ndarray | None = None
    ) -> CSRMatrix:
        return spic0_in_order(a, order)

    def verify(self, a: CSRMatrix, result, b: np.ndarray | None = None) -> float:
        return ic0_defect(a, result)
