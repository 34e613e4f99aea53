"""Structural and numerical matrix properties used by the evaluation harness.

The paper characterises its dataset by number of non-zeros, symmetry,
positive-definiteness (for SpIC0 stability), bandwidth, and DAG-derived
quantities such as average parallelism.  The structural checks live here; the
DAG-derived metrics live in :mod:`repro.metrics.parallelism`.
"""

from __future__ import annotations

import numpy as np

from .csr import CSRMatrix, INDEX_DTYPE

__all__ = [
    "is_structurally_symmetric",
    "is_numerically_symmetric",
    "bandwidth",
    "profile",
    "density",
]


def is_structurally_symmetric(a: CSRMatrix) -> bool:
    """True when the sparsity pattern satisfies ``(i, j) present iff (j, i)``."""
    if not a.is_square:
        return False
    t = a.transpose()
    return np.array_equal(a.indptr, t.indptr) and np.array_equal(a.indices, t.indices)


def is_numerically_symmetric(a: CSRMatrix, *, rtol: float = 1e-12) -> bool:
    """True when ``A == A.T`` up to a relative tolerance."""
    if not is_structurally_symmetric(a):
        return False
    t = a.transpose()
    scale = max(1.0, float(np.abs(a.data).max()) if a.nnz else 1.0)
    return bool(np.all(np.abs(a.data - t.data) <= rtol * scale))


def bandwidth(a: CSRMatrix) -> int:
    """Maximum ``|i - j|`` over stored entries (0 for diagonal/empty)."""
    if a.nnz == 0:
        return 0
    row_of = np.repeat(np.arange(a.n_rows, dtype=INDEX_DTYPE), np.diff(a.indptr))
    return int(np.abs(row_of - a.indices).max())


def profile(a: CSRMatrix) -> int:
    """Sum over rows of the distance from the leftmost entry to the diagonal.

    This is the classic envelope/profile measure that RCM-style orderings
    minimise; it is reported by the ordering benchmarks.
    """
    nonempty = np.nonzero(np.diff(a.indptr) > 0)[0]
    first = a.indices[a.indptr[nonempty]]
    below = first < nonempty
    return int((nonempty[below] - first[below]).sum())


def density(a: CSRMatrix) -> float:
    """``nnz / (n_rows * n_cols)``; 0 for degenerate shapes."""
    cells = a.n_rows * a.n_cols
    return a.nnz / cells if cells else 0.0
