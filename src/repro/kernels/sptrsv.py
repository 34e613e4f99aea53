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
* :func:`sptrsv_levelwise` — the matrix's memoised :class:`LevelProgram`:
  wide wavefronts run as one vectorized step each, runs of narrow ones as
  one scalar block, every row summed in stored order;
* :meth:`SpTRSV.execute_in_order` — the schedule executor: it checks the
  whole (schedule-derived) order against the dependences on every call,
  raising on any violation; a matrix's first solve then runs that order
  literally, and later solves run the matrix's :class:`LevelProgram`, whose
  ``x`` is ``==`` to the literal run of any valid order.
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


#: A level of at least this many rows runs as one vectorized step; runs of
#: narrower consecutive levels run as one scalar block (DESIGN.md, "The
#: SpTRSV level program").
WIDE_LEVEL = 16

#: ``CSRMatrix._row_program`` after the first solve, before the program is built
_SOLVED_ONCE = "solved once"


class LevelProgram:
    """The solve program of one solvable lower triangle, walked level by level.

    The program works on ``x`` and ``b`` permuted to its row order ``perm``:
    the wavefronts of ``L``'s DAG one after another, each run of
    consecutive narrow wavefronts sorted by row id as one block.  Each step
    fills the slice ``lo:hi`` of the permuted ``x`` and reads only slots
    below ``lo``, its own slice, and slot ``n``, which holds ``0.0``.

    * A wide wavefront is one vectorized step ``(True, lo, hi, cols, vals,
      diag)``.  ``cols`` and ``vals`` are ``(K + 1) x m`` blocks: column
      ``t`` holds row ``perm[lo + t]``'s off-diagonal entries, in stored
      order, below a first row of zeros (``s = 0.0``), padded with zeros
      that read slot ``n``.
    * A block of narrow wavefronts is one scalar step ``(False, lo, hi, ext,
      body, n_ext)``.  ``ext`` holds the slots read from earlier steps, and
      ``body[t]`` holds row ``perm[lo + t]``'s ``((value, slot), ...)``
      pairs and its diagonal.  A slot indexes the block's local list
      ``x[ext] + x[lo:hi]``, which grows row by row.

    Both step kinds compute every row as ``s = 0.0; s += v * x[j]`` in
    stored order, then ``(b[i] - s) / L[i, i]``.  So :meth:`solve` is
    ``==`` to running any valid order row by row.
    """

    __slots__ = ("n", "perm", "pos", "steps")

    def __init__(self, low: CSRMatrix) -> None:
        n = self.n = low.n_rows
        last = low.indptr[1:] - 1  # a solvable row stores its diagonal last
        off = np.ones(low.nnz, dtype=bool)
        off[last] = False
        cols, vals, diag = low.indices[off], low.data[off], low.data[last]
        ptr = low.indptr - np.arange(n + 1, dtype=INDEX_DTYPE)
        level = _levels(ptr.tolist(), cols.tolist())
        perm = np.argsort(level, kind="stable").astype(INDEX_DTYPE)
        bounds = [0, *np.cumsum(np.bincount(level)).tolist()]
        spans = []  # (lo, hi, wide) over perm
        lo = 0  # where the pending run of narrow wavefronts starts
        for start, stop in zip(bounds, bounds[1:]):
            if stop - start >= WIDE_LEVEL:
                if lo < start:
                    spans.append((lo, start, False))
                spans.append((start, stop, True))
                lo = stop
        if lo < n:
            spans.append((lo, n, False))
        for lo, hi, wide in spans:
            if not wide:
                perm[lo:hi].sort()
        pos = np.empty(n, dtype=INDEX_DTYPE)
        pos[perm] = np.arange(n, dtype=INDEX_DTYPE)
        cols, diag = pos[cols], diag[perm]
        ptr = ptr[:-1][perm], ptr[1:][perm]
        self.perm, self.pos = perm, pos
        self.steps: List[tuple] = [
            (_wide_step if wide else _scalar_block)(lo, hi, ptr, cols, vals, diag, n)
            for lo, hi, wide in spans
        ]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """``x`` with ``L x = b``; ``b`` is a checked float vector of ``n`` entries."""
        n = self.n
        b = b[self.perm]
        x = np.empty(n + 1, dtype=VALUE_DTYPE)
        x[n] = 0.0
        # like the scalar body, overflow and inf - inf pass without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            for step in self.steps:
                if step[0]:
                    _, lo, hi, cols, vals, diag = step
                    # cumsum adds in order down the entry axis, where
                    # add.reduce may sum a one-column block pairwise
                    prods = x.take(cols)
                    prods *= vals
                    np.cumsum(prods, axis=0, out=prods)
                    out = x[lo:hi]
                    np.subtract(b[lo:hi], prods[-1], out=out)
                    out /= diag
                else:
                    _, lo, hi, ext, body, n_ext = step
                    loc = x[ext].tolist()
                    for (pairs, d), r in zip(body, b[lo:hi].tolist()):
                        s = 0.0
                        for v, j in pairs:
                            s += v * loc[j]
                        loc.append((r - s) / d)
                    x[lo:hi] = loc[n_ext:]
        return x[self.pos]


def _levels(ptr: List[int], cols: List[int]) -> np.ndarray:
    """Wavefront of every row: 0 without off-diagonals, else 1 + its deepest column's."""
    level = [0] * (len(ptr) - 1)
    for i, (lo, hi) in enumerate(zip(ptr, ptr[1:])):
        if lo != hi:
            level[i] = 1 + max([level[j] for j in cols[lo:hi]])
    return np.array(level, dtype=INDEX_DTYPE)


def _entries(lo: int, hi: int, ptr: tuple):
    """``(counts, within, src)``: the off-diagonal entries of the rows at ``perm[lo:hi]``."""
    starts, ends = ptr[0][lo:hi], ptr[1][lo:hi]
    counts = ends - starts
    within = np.arange(int(counts.sum()), dtype=INDEX_DTYPE)
    within -= np.repeat(np.cumsum(counts) - counts, counts)
    return counts, within, np.repeat(starts, counts) + within


def _wide_step(lo, hi, ptr, cols, vals, diag, n) -> tuple:
    counts, within, src = _entries(lo, hi, ptr)
    shape = (int(counts.max()) + 1, hi - lo)
    block_cols = np.full(shape, n, dtype=INDEX_DTYPE)
    block_vals = np.zeros(shape, dtype=VALUE_DTYPE)
    at = (within + 1, np.repeat(np.arange(hi - lo, dtype=INDEX_DTYPE), counts))
    block_cols[at] = cols[src]
    block_vals[at] = vals[src]
    return (True, lo, hi, block_cols, block_vals, diag[lo:hi])


def _scalar_block(lo, hi, ptr, cols, vals, diag, n) -> tuple:
    counts, _, src = _entries(lo, hi, ptr)
    read = cols[src]
    earlier = read < lo
    ext, local = np.unique(read[earlier], return_inverse=True)
    slots = read - (lo - ext.shape[0])
    slots[earlier] = local
    bounds = np.zeros(hi - lo + 1, dtype=INDEX_DTYPE)
    np.cumsum(counts, out=bounds[1:])
    bounds = bounds.tolist()
    # The build makes ~nnz acyclic tuples; with the cyclic collector
    # scanning them as they are made it took about twice as long.
    collecting = gc.isenabled()
    gc.disable()
    try:
        pairs = tuple(zip(vals[src].tolist(), slots.tolist()))
        body = [(pairs[a:z], d) for a, z, d in zip(bounds, bounds[1:], diag[lo:hi].tolist())]
    finally:
        if collecting:
            gc.enable()
    return (False, lo, hi, ext, body, ext.shape[0])


def level_program(low: CSRMatrix) -> LevelProgram:
    """The :class:`LevelProgram` of ``low``, memoised in its ``_row_program`` slot.

    A matrix is checked with :func:`check_solvable` before its program is
    built, so a matrix that fails the check raises on every call and never
    gets a program.
    """
    program = low._row_program
    if not isinstance(program, LevelProgram):
        if program is None:
            check_solvable(low)
        program = low._row_program = LevelProgram(low)
    return program


def _solve_in_order(low: CSRMatrix, order: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Run ``order`` literally, row by row, on flat lists of ``low``'s arrays."""
    indptr, indices, data = low.indptr.tolist(), low.indices.tolist(), low.data.tolist()
    rhs = b.tolist()
    x = [0.0] * low.n_rows
    for i in order.tolist():
        lo, d = indptr[i], indptr[i + 1] - 1
        s = 0.0
        for k in range(lo, d):
            s += data[k] * x[indices[k]]
        x[i] = (rhs[i] - s) / data[d]
    return np.array(x, dtype=VALUE_DTYPE)


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


def sptrsv_levelwise(low: CSRMatrix, b: np.ndarray) -> np.ndarray:
    """Forward substitution wavefront by wavefront on ``low``'s :class:`LevelProgram`.

    Each row sums in stored order, so ``x`` is ``==`` to
    :meth:`SpTRSV.execute_in_order` under any valid order.
    """
    program = level_program(low)
    return program.solve(check_rhs(b, low.n_rows))


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

        The order is checked against the dependences on every call, since it
        may differ from call to call.  A matrix's first solve runs ``order``
        literally on flat lists of its arrays and builds nothing; later
        solves run its :class:`LevelProgram`, built on the second.  Either
        way each row computes ``x[i] = (b[i] - sum_j L[i, j] x[j]) / L[i, i]``
        on the same floats, the sum taken left to right in stored order, so
        every valid order gives the same ``x``.
        """
        first = a._row_program is None
        if first:
            check_solvable(a)
        n = a.n_rows
        b = check_rhs(np.ones(n) if b is None else b, n)
        order = check_order(
            a, order, "sptrsv", "iteration {i} scheduled before its dependences {missing}"
        )
        if first:
            a._row_program = _SOLVED_ONCE
            return _solve_in_order(a, order, b)
        return level_program(a).solve(b)

    def verify(self, a: CSRMatrix, result, b: np.ndarray | None = None) -> float:
        """Relative residual ``||Lx - b|| / ||b||``."""
        if b is None:
            b = np.ones(a.n_rows, dtype=VALUE_DTYPE)
        b = np.asarray(b, dtype=VALUE_DTYPE)
        r = a.matvec(np.asarray(result, dtype=VALUE_DTYPE)) - b
        denom = float(np.linalg.norm(b)) or 1.0
        return float(np.linalg.norm(r)) / denom
