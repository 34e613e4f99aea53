"""Kernel abstraction mirroring the paper's embedded kernel library.

Listing 2 of the paper drives the framework through a kernel object::

    Graph G = ILU0.DAG(A);
    Cost  C = ILU0.cost(A);
    Schedule S = HDagg(G, C, num_cores(), epsilon());
    Factor f = ilu0_omp(A, S);

A :class:`SparseKernel` bundles exactly those pieces for one computation:

* :meth:`~SparseKernel.dag` — the loop-carried dependence DAG,
* :meth:`~SparseKernel.cost` — per-iteration cost (non-zeros touched),
* :meth:`~SparseKernel.reference` — the sequential executor (oracle),
* :meth:`~SparseKernel.execute_in_order` — the schedule-driven executor,
  which first checks that the order respects every dependence
  (:func:`check_order`) and then runs it,
* :meth:`~SparseKernel.memory_trace` — per-iteration touched cache lines,
  feeding the locality model of :mod:`repro.runtime.cache`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Tuple

import numpy as np

from ..graph.dag import DAG
from ..sparse.csr import CSRMatrix, INDEX_DTYPE, check_rhs

__all__ = ["SparseKernel", "KernelError", "check_order", "check_rhs", "lines_of_rows"]


class KernelError(RuntimeError):
    """Raised when a kernel cannot run (structural defect, zero pivot, ...)."""


def check_order(pattern: CSRMatrix, order, name: str, violation: str) -> np.ndarray:
    """Check, in one vectorized pass, that ``order`` can run the kernel.

    ``order`` must be a permutation of ``range(n)``, and iteration ``i``
    depends on every column ``j < i`` stored in row ``i`` of ``pattern``:
    with ``pos[order] = arange(n)``, each such entry needs
    ``pos[j] < pos[i]``.  On a violation the :class:`KernelError` names the
    earliest violating iteration in ``order`` and its first five unmet
    dependences in stored column order: the message is
    ``f"{name}: " + violation.format(i=..., missing=[...])``.

    Returns ``order`` as an index array.
    """
    n = pattern.n_rows
    order = np.asarray(order, dtype=INDEX_DTYPE)
    if order.shape[0] != n or np.any(np.sort(order) != np.arange(n)):
        raise KernelError(f"{name}: order must be a permutation of range(n)")
    pos = np.empty(n, dtype=INDEX_DTYPE)
    pos[order] = np.arange(n, dtype=INDEX_DTYPE)
    rows = np.repeat(np.arange(n, dtype=INDEX_DTYPE), pattern.row_nnz())
    cols = pattern.indices
    late = (cols < rows) & (pos[cols] > pos[rows])
    if late.any():
        i = int(order[pos[rows[late]].min()])
        missing = cols[late & (rows == i)][:5].tolist()
        raise KernelError(f"{name}: " + violation.format(i=i, missing=missing))
    return order


def lines_of_rows(a: CSRMatrix, *, line_elems: int = 8) -> Tuple[np.ndarray, np.ndarray]:
    """Assign cache-line ids to the stored entries of ``a``, row-major.

    Returns ``(line_ptr, line_base)`` where row ``i`` occupies line ids
    ``line_base[i] .. line_base[i] + n_lines(i) - 1`` and
    ``n_lines(i) = ceil(row_nnz(i) / line_elems)`` (at least 1: factor rows
    are padded to a line).  Line ids are globally unique per matrix, so two
    different rows never share a line — a slightly pessimistic but simple
    model of CSR storage.
    """
    per_row = np.maximum(1, -(-a.row_nnz() // line_elems))
    line_base = np.zeros(a.n_rows + 1, dtype=INDEX_DTYPE)
    np.cumsum(per_row, out=line_base[1:])
    return per_row.astype(INDEX_DTYPE), line_base


class SparseKernel(ABC):
    """One sparse computation with loop-carried dependence.

    Subclasses are stateless; all per-matrix artefacts are returned, never
    cached, so one kernel object can serve the whole matrix suite.
    """

    #: short identifier used in reports ("sptrsv", "spic0", "spilu0")
    name: str = "abstract"

    # ------------------------------------------------------------------
    # inspector-facing interface
    # ------------------------------------------------------------------
    @abstractmethod
    def dag(self, a: CSRMatrix) -> DAG:
        """Data-dependence DAG of the outermost loop over ``a``."""

    @abstractmethod
    def cost(self, a: CSRMatrix) -> np.ndarray:
        """Per-iteration cost: number of non-zeros touched (paper Section IV-A)."""

    @abstractmethod
    def memory_trace(self, a: CSRMatrix, *, line_elems: int = 8) -> Tuple[np.ndarray, np.ndarray]:
        """Cache-line footprint per iteration as a ragged CSR pair.

        Returns ``(ptr, lines)``: iteration ``i`` touches line ids
        ``lines[ptr[i]:ptr[i+1]]`` in access order.  Line ids follow
        :func:`lines_of_rows` plus a distinct id space for the right-hand
        side / solution vector where relevant.
        """

    # ------------------------------------------------------------------
    # executor-facing interface
    # ------------------------------------------------------------------
    @abstractmethod
    def reference(self, a: CSRMatrix, b: np.ndarray | None = None):
        """Sequential oracle implementation."""

    @abstractmethod
    def execute_in_order(self, a: CSRMatrix, order: np.ndarray, b: np.ndarray | None = None):
        """Run the kernel with iterations executed in ``order``.

        ``order`` must be a permutation of ``range(n)`` that respects the
        DAG.  The executor checks the whole order once, before any
        arithmetic (:func:`check_order`), and raises :class:`KernelError`
        on a violation; then it runs the iterations in ``order``.
        """

    @abstractmethod
    def verify(self, a: CSRMatrix, result, b: np.ndarray | None = None) -> float:
        """Defect of ``result`` (0 == exact); metric is kernel-specific."""

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def check_square(self, a: CSRMatrix) -> None:
        if not a.is_square:
            raise KernelError(f"{self.name}: matrix must be square, got {a.shape}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<kernel {self.name}>"
