"""Incomplete Cholesky factorisation with zero fill-in (SpIC0).

Computes a lower-triangular ``L`` with the sparsity of ``tril(A)`` such that
``(L @ L.T)[i, j] == A[i, j]`` on every stored position of the lower pattern
(the defining IC(0) property).  Row ``i`` of ``L`` needs the finished rows
``j`` for every stored ``A[i, j]`` with ``j < i`` — the same dependence DAG
as SpTRSV on the lower triangle, which is why the paper drives all three
kernels through one inspector.

The paper selects SPD inputs precisely so this factorisation exists; a
pivot that is not positive (a NaN one included) raises
:class:`~repro.kernels.base.KernelError` rather than silently producing NaNs.

The reference and the schedule executor run one row body on Python scalars
(:func:`_factor_up_looking`, shared with complete Cholesky), the reference in
natural order and the executor in its checked order.  Its sums run left to
right in stored column order, so every valid order gives the same factor
(``==``), which is the reference's.
"""

from __future__ import annotations

import math
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


def _factor_up_looking(low: CSRMatrix, rows) -> CSRMatrix:
    """Up-looking IC(0) of the lower CSR ``low``, rows factored in ``rows``.

    The one row body of SpIC0 and complete Cholesky, on Python scalars
    (``tolist()`` once per call).  For each stored ``L[i, j]``, ``j < i``::

        L[i, j] = (A[i, j] - sum_{k < j} L[i, k] L[j, k]) / L[j, j]

    where the prefix dot is a sorted two-pointer merge of row ``i``'s entries
    left of ``j`` with row ``j``'s off-diagonal entries, and then
    ``L[i, i] = sqrt(A[i, i] - sum_{k < i} L[i, k]^2)``.  Every sum runs left
    to right in stored column order, so the factor does not depend on the
    (valid) order of ``rows``.  A pivot that is not ``> 0`` (NaN included)
    raises :class:`KernelError`.
    """
    indptr, indices, a_data = low.indptr.tolist(), low.indices.tolist(), low.data.tolist()
    l = [0.0] * len(a_data)
    for i in rows:
        lo, diag = indptr[i], indptr[i + 1] - 1
        # stored lower row always ends with the diagonal (cols sorted, col <= i)
        if diag < lo or indices[diag] != i:
            raise KernelError(f"spic0: row {i} is missing its diagonal entry")
        for t in range(lo, diag):
            j = indices[t]
            p, q, jdiag = lo, indptr[j], indptr[j + 1] - 1
            s = 0.0
            while p < t and q < jdiag:
                cp, cq = indices[p], indices[q]
                if cp == cq:
                    s += l[p] * l[q]
                    p += 1
                    q += 1
                elif cp < cq:
                    p += 1
                else:
                    q += 1
            l[t] = (a_data[t] - s) / l[jdiag]
        s = 0.0
        for x in l[lo:diag]:
            s += x * x
        pivot = a_data[diag] - s
        if not pivot > 0.0:
            raise KernelError(f"spic0: non-positive pivot {pivot!r} at row {i} (matrix not SPD enough)")
        l[diag] = math.sqrt(pivot)
    return low.with_data(np.array(l, dtype=VALUE_DTYPE))


def _checked_lower(a: CSRMatrix) -> CSRMatrix:
    low = lower_triangle(a)
    if not low.has_full_diagonal():
        raise KernelError("spic0: matrix must have a full diagonal")
    return low


def spic0_reference(a: CSRMatrix) -> CSRMatrix:
    """Sequential IC(0): returns lower-triangular ``L`` on ``tril(A)``'s pattern."""
    low = _checked_lower(a)
    return _factor_up_looking(low, range(low.n_rows))


def spic0_in_order(a: CSRMatrix, order: np.ndarray) -> CSRMatrix:
    """IC(0) with rows factored in ``order``, checked once against every dependence."""
    low = _checked_lower(a)
    order = check_order(low, order, "spic0", "row {i} factored before rows {missing}")
    return _factor_up_looking(low, order.tolist())


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
