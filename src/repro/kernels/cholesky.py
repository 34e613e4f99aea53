"""Complete sparse Cholesky factorisation on the symbolic fill pattern.

The tree-structured DAGs the paper contrasts HDagg against come from
*complete* factorisations: the filled pattern is chordal, its dependence
structure follows the elimination tree exactly, and LBC was designed for
precisely this case (Section I).  Adding the kernel lets the framework
cover both regimes — incomplete factorisations (non-tree DAGs, HDagg's
target) and complete ones (tree DAGs, LBC's home turf) — and lets tests
pit the schedulers against each other on LBC-favourable inputs.

Construction: embed ``A`` into its symbolic factor pattern
(:func:`repro.sparse.symbolic.symbolic_cholesky`) with explicit zeros at
fill positions; up-looking row factorisation on that pattern *is* complete
Cholesky, so the numeric core (the scalar row body
:func:`repro.kernels.spic0._factor_up_looking`) is shared with SpIC0, and
the defect ``max |(L L^T - A)[i,j]|`` is zero over the **dense** matrix,
not just a sparsity pattern.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..graph.build import dag_from_lower_triangular
from ..graph.dag import DAG
from ..sparse.csr import CSRMatrix, VALUE_DTYPE
from ..sparse.symbolic import symbolic_cholesky
from ..sparse.triangular import lower_triangle
from ._trace import trace_self_plus_lower_neighbors
from .base import KernelError, SparseKernel, check_order
from .memory import MemoryModel, factor_memory_model
from .spic0 import _factor_up_looking

__all__ = ["SpChol", "embed_in_fill_pattern", "cholesky_reference", "cholesky_in_order", "cholesky_defect"]


def embed_in_fill_pattern(a: CSRMatrix) -> CSRMatrix:
    """Lower triangle of ``a`` embedded in its symbolic factor pattern.

    Fill positions carry explicit zeros; original entries keep their
    values.  The result is the storage the numeric factorisation updates
    in place.
    """
    if not a.is_square:
        raise KernelError("cholesky: matrix must be square")
    pattern = symbolic_cholesky(a)
    low = lower_triangle(a)
    n = a.n_rows
    data = np.zeros(pattern.nnz, dtype=VALUE_DTYPE)
    for i in range(n):
        plo, phi = pattern.indptr[i], pattern.indptr[i + 1]
        alo, ahi = low.indptr[i], low.indptr[i + 1]
        pos = np.searchsorted(pattern.indices[plo:phi], low.indices[alo:ahi])
        data[plo + pos] = low.data[alo:ahi]
    return pattern.with_data(data)


def cholesky_reference(a: CSRMatrix) -> CSRMatrix:
    """Sequential complete Cholesky; returns ``L`` on the filled pattern."""
    emb = embed_in_fill_pattern(a)
    return _factor_up_looking(emb, range(emb.n_rows))


def cholesky_in_order(a: CSRMatrix, order: np.ndarray) -> CSRMatrix:
    """Complete Cholesky with rows factored in ``order``, checked once beforehand."""
    emb = embed_in_fill_pattern(a)
    order = check_order(emb, order, "cholesky", "row {i} factored before rows {missing}")
    return _factor_up_looking(emb, order.tolist())


def cholesky_defect(a: CSRMatrix, factor: CSRMatrix) -> float:
    """Max relative defect of ``L L^T - A`` over the *dense* matrix."""
    ls = factor.to_scipy()
    diff = np.abs((ls @ ls.T).toarray() - a.to_dense())
    scale = float(np.abs(a.data).max()) or 1.0
    return float(diff.max()) / scale


class SpChol(SparseKernel):
    """Complete sparse Cholesky as a schedulable kernel (tree-DAG regime)."""

    name = "spchol"

    def _pattern(self, a: CSRMatrix) -> CSRMatrix:
        return symbolic_cholesky(a)

    def dag(self, a: CSRMatrix) -> DAG:
        """Dependence DAG of the *filled* pattern — etree-structured."""
        return dag_from_lower_triangular(self._pattern(a))

    def cost(self, a: CSRMatrix) -> np.ndarray:
        """Non-zeros touched per row of the filled factor."""
        pattern = self._pattern(a)
        from .cost import spic0_cost

        return spic0_cost(pattern)

    def memory_trace(self, a: CSRMatrix, *, line_elems: int = 8) -> Tuple[np.ndarray, np.ndarray]:
        return trace_self_plus_lower_neighbors(self._pattern(a), line_elems=line_elems)

    def memory_model(self, a: CSRMatrix, g: DAG | None = None, *, line_elems: int = 8) -> MemoryModel:
        pattern = self._pattern(a)
        if g is None:
            g = dag_from_lower_triangular(pattern)
        return factor_memory_model(pattern, g, line_elems=line_elems)

    def reference(self, a: CSRMatrix, b: np.ndarray | None = None) -> CSRMatrix:
        return cholesky_reference(a)

    def execute_in_order(
        self, a: CSRMatrix, order: np.ndarray, b: np.ndarray | None = None
    ) -> CSRMatrix:
        return cholesky_in_order(a, order)

    def verify(self, a: CSRMatrix, result, b: np.ndarray | None = None) -> float:
        return cholesky_defect(a, result)
