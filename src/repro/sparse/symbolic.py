"""Symbolic Cholesky factorisation: elimination tree, fill pattern, fill count.

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
* :func:`fill_in` — the entries that pattern adds beyond ``tril(A)``.
"""

from __future__ import annotations

import numpy as np

from .csr import CSRMatrix, INDEX_DTYPE, VALUE_DTYPE, csr_from_coo
from .triangular import lower_triangle

__all__ = [
    "elimination_tree",
    "elimination_tree_from_matrix",
    "symbolic_cholesky",
    "fill_in",
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


def fill_in(a: CSRMatrix) -> int:
    """Entries the factor adds beyond ``tril(A)``'s pattern."""
    return symbolic_cholesky(a).nnz - lower_triangle(a).nnz
