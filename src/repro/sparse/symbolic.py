"""Symbolic Cholesky factorisation: fill pattern, column counts, chordality.

The paper's SpTRSV workload is a lower-triangular *factor* — the output of
a (complete or incomplete) factorisation — whose pattern includes fill.
This module computes that pattern without numerics:

* :func:`elimination_tree` — Liu's etree from a strictly-lower pattern
  (the one body; LBC calls it on a dependence DAG's in-edges), and
  :func:`elimination_tree_from_matrix`, its wrapper for a symmetric matrix;
* :func:`symbolic_cholesky` — the filled pattern of the Cholesky factor
  ``L`` (row-subtree characterisation: row ``i`` of ``L`` contains ``j``
  iff ``j`` is on an etree path from a nonzero column of ``A`` row ``i``
  up to ``i``);
* :func:`column_counts` — nnz per factor column (fill prediction);
* :func:`is_chordal_pattern` — a pattern is chordal iff it equals its own
  symbolic factor pattern (zero fill), the property LBC's tree machinery
  relies on (Figure 1(c)).

These also extend the evaluation dataset: ``factor_pattern(A)`` turns any
suite matrix into the filled SPD pattern whose triangular solve matches
the paper's Cholesky-factor workloads.
"""

from __future__ import annotations

import numpy as np

from .csr import CSRMatrix, INDEX_DTYPE, VALUE_DTYPE, csr_from_coo
from .triangular import lower_triangle

__all__ = [
    "elimination_tree",
    "elimination_tree_from_matrix",
    "symbolic_cholesky",
    "column_counts",
    "fill_in",
    "is_chordal_pattern",
    "factor_pattern_spd",
    "supernodes",
]


def elimination_tree(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Liu's elimination tree of a strictly-lower pattern (parent array).

    Row ``i`` of the pattern lists the columns ``k < i`` stored in
    ``indices[indptr[i]:indptr[i + 1]]``; entries with ``k >= i`` are
    skipped, so a full symmetric pattern gives the same tree.  Returns
    ``parent`` with ``parent[root] = -1`` and ``parent(v) > v``.  The
    path-compressed "ancestor" forest gives near-linear time; the walk runs
    over Python lists.
    """
    n = len(indptr) - 1
    ptr = np.asarray(indptr).tolist()
    idx = np.asarray(indices).tolist()
    parent = [-1] * n
    ancestor = [-1] * n
    for i in range(n):
        for t in range(ptr[i], ptr[i + 1]):
            r = idx[t]
            if r >= i:
                continue
            while True:
                a = ancestor[r]
                if a == i:
                    break
                ancestor[r] = i  # path compression
                if a == -1:
                    parent[r] = i
                    break
                r = a
    return np.asarray(parent, dtype=INDEX_DTYPE)


def elimination_tree_from_matrix(a: CSRMatrix) -> np.ndarray:
    """Liu's elimination tree of ``a``'s symmetric pattern (parent array).

    ``parent[i] = -1`` marks a root.  Only the lower triangle is read, so
    the input may be the full symmetric matrix or its lower triangle.
    """
    if not a.is_square:
        raise ValueError("elimination tree requires a square matrix")
    return elimination_tree(a.indptr, a.indices)


def symbolic_cholesky(a: CSRMatrix) -> CSRMatrix:
    """Pattern of the Cholesky factor ``L`` (lower, unit values, full diag).

    Row-subtree traversal: for each row ``i``, walk each below-diagonal
    entry ``k`` up the elimination tree until reaching ``i`` or an already
    marked vertex; every vertex on the path is a fill position of row
    ``i``.  O(|L|) total work.
    """
    if not a.is_square:
        raise ValueError("symbolic factorisation requires a square matrix")
    n = a.n_rows
    parent = elimination_tree_from_matrix(a)
    mark = np.full(n, -1, dtype=INDEX_DTYPE)
    rows: list[int] = []
    cols: list[int] = []
    indptr, indices = a.indptr, a.indices
    for i in range(n):
        mark[i] = i
        rows.append(i)
        cols.append(i)
        for t in range(indptr[i], indptr[i + 1]):
            k = int(indices[t])
            if k >= i:
                continue
            j = k
            while mark[j] != i:
                mark[j] = i
                rows.append(i)
                cols.append(j)
                j = int(parent[j])
                if j == -1 or j >= i:
                    break
    vals = np.ones(len(rows), dtype=VALUE_DTYPE)
    return csr_from_coo(n, n, rows, cols, vals, sum_duplicates=False)


def column_counts(a: CSRMatrix) -> np.ndarray:
    """Non-zeros per column of the symbolic factor (including diagonal)."""
    l = symbolic_cholesky(a)
    counts = np.bincount(l.indices, minlength=a.n_rows)
    return counts.astype(INDEX_DTYPE)


def fill_in(a: CSRMatrix) -> int:
    """Entries the factor adds beyond ``tril(A)``'s pattern."""
    return symbolic_cholesky(a).nnz - lower_triangle(a).nnz


def is_chordal_pattern(a: CSRMatrix) -> bool:
    """True when elimination in natural order produces no fill.

    Zero fill in the given order means the pattern (with this ordering) has
    a perfect elimination ordering — the chordality property LBC's
    tree-based machinery assumes.
    """
    return fill_in(a) == 0


def factor_pattern_spd(a: CSRMatrix, *, seed: int = 0, dominance: float = 1.0) -> CSRMatrix:
    """A full SPD matrix whose lower triangle equals ``a``'s filled factor.

    Used to extend the dataset with Cholesky-factor-shaped workloads: the
    triangular solve on ``lower_triangle(result)`` has exactly the paper's
    "solve with the factor of A" dependence structure, and the pattern is
    chordal by construction.
    """
    from .generators import spd_from_pattern

    l = symbolic_cholesky(a)
    row_of = np.repeat(np.arange(l.n_rows, dtype=INDEX_DTYPE), l.row_nnz())
    strict = l.indices < row_of
    return spd_from_pattern(
        a.n_rows, row_of[strict], l.indices[strict], seed=seed, dominance=dominance
    )


def supernodes(a: CSRMatrix) -> np.ndarray:
    """Fundamental supernodes of the symbolic factor.

    A supernode is a maximal run of consecutive columns ``j, j+1, ...``
    where each column's structure below the diagonal equals the next
    column's structure plus that diagonal — the dense trapezoids supernodal
    Cholesky factorises with BLAS3.  Detected with the standard rule:
    column ``j+1`` joins ``j``'s supernode iff ``parent(j) == j+1`` and
    ``count(j) == count(j+1) + 1`` (etree parent + column-count matching).

    Returns a label array of length ``n`` (labels are the first column of
    each supernode, so they are sorted and dense enough for grouping).
    """
    n = a.n_rows
    parent = elimination_tree_from_matrix(a)
    counts = column_counts(a)
    labels = np.empty(n, dtype=INDEX_DTYPE)
    current = 0
    labels[0] = 0
    for j in range(1, n):
        if parent[j - 1] == j and counts[j - 1] == counts[j] + 1:
            labels[j] = current
        else:
            current = j
            labels[j] = current
    return labels
