"""Sparse triangular solve (SpTRSV), CSR forward substitution.

Listing 1 of the paper::

    for (i = 0; i < n; i++) {
      x[i] = b[i];
      for (j = Lp[i]; j < Lp[i+1] - 1; j++)
        x[i] -= Lx[j] * x[Li[j]];
      x[i] /= Lx[Lp[i+1] - 1];
    }

Iteration ``i`` reads ``x[j]`` for every stored ``L[i, j]``, ``j < i`` —
those reads are the loop-carried dependences the inspectors schedule around.

Three executors are provided:

* :func:`sptrsv_reference` — the literal sequential loop (oracle);
* :func:`sptrsv_levelwise` — vectorized level-synchronous solve (one
  segmented mat-vec per wavefront), used by the examples and tests;
* :meth:`SpTRSV.execute_in_order` — the schedule executor: it checks the
  whole (schedule-derived) order against the dependences once per call,
  raising on any violation, then runs the iterations in that order on the
  matrix's memoised row program (:func:`row_program`).
"""

from __future__ import annotations

import gc
from typing import List, Tuple

import numpy as np

from ..graph.build import dag_from_lower_triangular
from ..graph.dag import DAG
from ..graph.wavefronts import Wavefronts, compute_wavefronts
from ..sparse.csr import CSRMatrix, INDEX_DTYPE, VALUE_DTYPE
from .base import KernelError, SparseKernel, check_order, check_rhs, lines_of_rows
from .cost import sptrsv_cost

__all__ = [
    "SpTRSV",
    "sptrsv_reference",
    "sptrsv_levelwise",
    "sptrsv_transpose_reference",
    "sptrsv_transpose_levelwise",
    "check_solvable",
]


def check_solvable(low: CSRMatrix) -> None:
    """Validate that ``low`` is lower-triangular with a non-zero full diagonal."""
    if not low.is_square:
        raise KernelError("sptrsv: matrix must be square")
    counts = low.row_nnz()
    rows = np.arange(low.n_rows, dtype=INDEX_DTYPE)
    if np.any(low.indices > np.repeat(rows, counts)):
        raise KernelError("sptrsv: matrix has entries above the diagonal")
    last = low.indptr[1:] - 1  # with nothing above it, a row's diagonal is its last entry
    if not counts.all() or np.any(low.indices[last] != rows):
        raise KernelError("sptrsv: missing diagonal entry")
    if np.any(low.data[last] == 0.0):
        raise KernelError("sptrsv: zero on the diagonal")


def row_program(low: CSRMatrix) -> Tuple[List[tuple], List[float]]:
    """``(rows, diag)``: the solvable lower triangle ``low`` as Python lists.

    ``rows[i]`` is a tuple of row ``i``'s off-diagonal ``(value, column)``
    pairs in stored order and ``diag[i]`` is ``L[i, i]``.  The program is
    memoised on ``low``, which is immutable, and built only after
    :func:`check_solvable` passes: a matrix that fails the check raises on
    every call and never gets a program.
    """
    program = low._row_program
    if program is None:
        check_solvable(low)
        last = low.indptr[1:] - 1  # a solvable row stores its diagonal last
        off = np.ones(low.nnz, dtype=bool)
        off[last] = False
        vals, cols = low.data[off].tolist(), low.indices[off].tolist()
        ptr = (low.indptr - np.arange(low.n_rows + 1, dtype=INDEX_DTYPE)).tolist()
        # The build makes ~nnz acyclic tuples; with the cyclic collector
        # scanning them as they are made it took about twice as long.
        collecting = gc.isenabled()
        gc.disable()
        try:
            pairs = tuple(zip(vals, cols))
            rows = [pairs[lo:hi] for lo, hi in zip(ptr, ptr[1:])]
        finally:
            if collecting:
                gc.enable()
        program = low._row_program = (rows, low.data[last].tolist())
    return program


def sptrsv_reference(low: CSRMatrix, b: np.ndarray) -> np.ndarray:
    """Sequential forward substitution (the paper's Listing 1)."""
    check_solvable(low)
    n = low.n_rows
    b = check_rhs(b, n)
    x = np.empty(n, dtype=VALUE_DTYPE)
    indptr, indices, data = low.indptr, low.indices, low.data
    for i in range(n):
        lo, hi = indptr[i], indptr[i + 1]
        cols = indices[lo : hi - 1]  # diagonal is last (sorted row)
        x[i] = (b[i] - data[lo : hi - 1] @ x[cols]) / data[hi - 1]
    return x


def sptrsv_levelwise(low: CSRMatrix, b: np.ndarray, waves: Wavefronts | None = None) -> np.ndarray:
    """Vectorized wavefront-at-a-time forward substitution.

    Rows inside one wavefront are independent, so each wavefront is a single
    gather / segmented-reduce / scale — no Python loop over rows.  Numerically
    identical (up to FP reassociation within a row) to the reference.
    """
    check_solvable(low)
    if waves is None:
        waves = compute_wavefronts(dag_from_lower_triangular(low))
    n = low.n_rows
    b = check_rhs(b, n)
    x = np.empty(n, dtype=VALUE_DTYPE)
    indptr, indices, data = low.indptr, low.indices, low.data
    for k in range(waves.n_levels):
        rows = waves.wavefront(k)
        starts = indptr[rows]
        ends = indptr[rows + 1]
        counts = ends - starts - 1  # off-diagonal entries per row
        total = int(counts.sum())
        if total:
            cum = np.cumsum(counts)
            within = np.arange(total, dtype=INDEX_DTYPE) - np.repeat(cum - counts, counts)
            flat = np.repeat(starts, counts) + within
            prods = data[flat] * x[indices[flat]]
            sums = np.zeros(rows.shape[0], dtype=VALUE_DTYPE)
            seg = np.repeat(np.arange(rows.shape[0], dtype=INDEX_DTYPE), counts)
            np.add.at(sums, seg, prods)
        else:
            sums = np.zeros(rows.shape[0], dtype=VALUE_DTYPE)
        x[rows] = (b[rows] - sums) / data[ends - 1]
    return x


def sptrsv_transpose_reference(low: CSRMatrix, b: np.ndarray) -> np.ndarray:
    """Sequential backward substitution for ``L^T x = b`` on the CSR of ``L``.

    Column-oriented: once ``x[i]`` is final, it is scattered into the
    partial sums of the rows ``j < i`` that column ``i`` of ``L^T`` (= row
    ``i`` of ``L``) touches.  This is the second half of every
    IC(0)-preconditioned solve, so it shares ``L``'s storage and schedule
    machinery instead of materialising ``L^T``.
    """
    check_solvable(low)
    n = low.n_rows
    b = check_rhs(b, n)
    x = b.copy()
    indptr, indices, data = low.indptr, low.indices, low.data
    for i in range(n - 1, -1, -1):
        lo, hi = indptr[i], indptr[i + 1]
        x[i] /= data[hi - 1]
        cols = indices[lo : hi - 1]
        x[cols] -= data[lo : hi - 1] * x[i]
    return x


def sptrsv_transpose_levelwise(
    low: CSRMatrix, b: np.ndarray, waves: Wavefronts | None = None
) -> np.ndarray:
    """Vectorized ``L^T x = b`` sweeping the wavefronts of ``L`` backwards.

    The transpose solve's dependence DAG is the reverse of ``L``'s, so
    running ``L``'s wavefronts from last to first satisfies every reversed
    edge; within one wavefront the scatter targets are disjoint from the
    wavefront itself, so the whole level is one gather/scale/scatter.
    """
    check_solvable(low)
    if waves is None:
        waves = compute_wavefronts(dag_from_lower_triangular(low))
    b = check_rhs(b, low.n_rows)
    x = b.copy()
    indptr, indices, data = low.indptr, low.indices, low.data
    for k in range(waves.n_levels - 1, -1, -1):
        rows = waves.wavefront(k)
        starts = indptr[rows]
        ends = indptr[rows + 1]
        x[rows] /= data[ends - 1]
        counts = ends - starts - 1
        total = int(counts.sum())
        if total:
            cum = np.cumsum(counts)
            within = np.arange(total, dtype=INDEX_DTYPE) - np.repeat(cum - counts, counts)
            flat = np.repeat(starts, counts) + within
            np.subtract.at(
                x, indices[flat], data[flat] * np.repeat(x[rows], counts)
            )
    return x


class SpTRSV(SparseKernel):
    """The SpTRSV kernel object (inspector + executor interface)."""

    name = "sptrsv"

    def dag(self, a: CSRMatrix) -> DAG:
        """Dependence DAG: edge ``j -> i`` for every stored ``L[i, j]``, ``j < i``."""
        return dag_from_lower_triangular(a)

    def cost(self, a: CSRMatrix) -> np.ndarray:
        return sptrsv_cost(a)

    def memory_trace(self, a: CSRMatrix, *, line_elems: int = 8) -> Tuple[np.ndarray, np.ndarray]:
        """Iteration ``i`` touches: the lines of ``L`` row ``i`` (streamed),
        the ``x``-vector lines of its column indices, and the line of
        ``x[i]`` it writes."""
        n = a.n_rows
        per_row_lines, line_base = lines_of_rows(a, line_elems=line_elems)
        x_off = int(line_base[-1])
        nnz_row = a.row_nnz()
        tot = per_row_lines + nnz_row + 1
        ptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
        np.cumsum(tot, out=ptr[1:])
        lines = np.empty(int(ptr[-1]), dtype=INDEX_DTYPE)
        # part A: L-row lines, consecutive ids starting at line_base[i]
        cntA = per_row_lines
        cumA = np.cumsum(cntA)
        withinA = np.arange(int(cumA[-1]), dtype=INDEX_DTYPE) - np.repeat(cumA - cntA, cntA)
        destA = np.repeat(ptr[:-1], cntA) + withinA
        lines[destA] = np.repeat(line_base[:-1], cntA) + withinA
        # part B: x-vector lines of the columns read
        cntB = nnz_row
        if int(cntB.sum()):
            cumB = np.cumsum(cntB)
            withinB = np.arange(int(cumB[-1]), dtype=INDEX_DTYPE) - np.repeat(cumB - cntB, cntB)
            destB = np.repeat(ptr[:-1] + cntA, cntB) + withinB
            lines[destB] = x_off + a.indices // line_elems
        # part C: the write of x[i]
        lines[ptr[1:] - 1] = x_off + np.arange(n, dtype=INDEX_DTYPE) // line_elems
        return ptr, lines

    def memory_model(self, a: CSRMatrix, g: DAG | None = None, *, line_elems: int = 8):
        """Edge-based memory model (see :mod:`repro.kernels.memory`)."""
        from .memory import sptrsv_memory_model

        return sptrsv_memory_model(a, g if g is not None else self.dag(a), line_elems=line_elems)

    def reference(self, a: CSRMatrix, b: np.ndarray | None = None) -> np.ndarray:
        if b is None:
            b = np.ones(a.n_rows, dtype=VALUE_DTYPE)
        return sptrsv_reference(a, b)

    def execute_in_order(
        self, a: CSRMatrix, order: np.ndarray, b: np.ndarray | None = None
    ) -> np.ndarray:
        """Forward substitution running the iterations in ``order``.

        The matrix's :func:`row_program` is built on the first call; the
        order is checked against the dependences on every call, since it
        may differ from call to call.  Then each row computes
        ``x[i] = (b[i] - sum_j L[i, j] x[j]) / L[i, i]`` on plain Python
        floats, the sum taken left to right in stored order.
        """
        rows, diag = row_program(a)
        n = a.n_rows
        b = check_rhs(np.ones(n) if b is None else b, n)
        order = check_order(
            a, order, "sptrsv", "iteration {i} scheduled before its dependences {missing}"
        )
        rhs = b.tolist()
        x = [0.0] * n
        for i in order.tolist():
            s = 0.0
            for v, j in rows[i]:
                s += v * x[j]
            x[i] = (rhs[i] - s) / diag[i]
        return np.array(x, dtype=VALUE_DTYPE)

    def verify(self, a: CSRMatrix, result, b: np.ndarray | None = None) -> float:
        """Relative residual ``||Lx - b|| / ||b||``."""
        if b is None:
            b = np.ones(a.n_rows, dtype=VALUE_DTYPE)
        b = np.asarray(b, dtype=VALUE_DTYPE)
        r = a.matvec(np.asarray(result, dtype=VALUE_DTYPE)) - b
        denom = float(np.linalg.norm(b)) or 1.0
        return float(np.linalg.norm(r)) / denom
