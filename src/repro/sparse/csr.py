"""Compressed Sparse Row (CSR) matrix container.

CSR is the canonical storage format of this library, mirroring the paper's
implementation which operates on CSR inputs for all three kernels (SpTRSV,
SpIC0, SpILU0).  The container is a thin, immutable wrapper over three NumPy
arrays (``indptr``, ``indices``, ``data``) so that inspector algorithms can
work directly on the flat arrays without per-element Python objects.

Design notes
------------
* Index arrays are ``INDEX_DTYPE`` (int64) throughout; value arrays are
  float64.  Using one index dtype everywhere avoids silent up/down casts in
  the hot inspector loops.
* Column indices within each row are kept sorted and duplicate-free; the
  constructor verifies this (cheaply, vectorized) unless told not to.
* The arrays are set read-only, and an array that views memory someone
  else can still write (``buf[:k]`` of a writeable ``buf``) is copied
  first, so a matrix never changes after construction and values derived
  from it (the SpTRSV row program) may be memoised on it.  Numeric kernels
  that need to update values (e.g. factorizations) copy ``data``
  explicitly, which makes aliasing bugs impossible.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

__all__ = [
    "INDEX_DTYPE",
    "VALUE_DTYPE",
    "CSRMatrix",
    "csr_from_coo",
    "csr_from_dense",
    "csr_from_scipy",
]

#: Canonical dtype for all index arrays (indptr / indices / permutations).
INDEX_DTYPE = np.int64

#: Canonical dtype for all numeric value arrays.
VALUE_DTYPE = np.float64


def _as_index_array(a, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(a, dtype=INDEX_DTYPE)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def _as_value_array(a, name: str) -> np.ndarray:
    arr = np.ascontiguousarray(a, dtype=VALUE_DTYPE)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr`` made read-only, copied first when its memory is writeable elsewhere.

    An array that owns its memory is frozen in place, and so is a view of a
    read-only array (``with_data`` shares its structure this way); a view of
    a writeable array or of a foreign buffer is copied, so writes through
    its base cannot reach the matrix.
    """
    base = arr.base
    if base is not None and (not isinstance(base, np.ndarray) or base.flags.writeable):
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


def check_rhs(b: np.ndarray, n: int) -> np.ndarray:
    """``b`` as a float vector of exactly ``n`` entries, else ``ValueError``."""
    b = np.asarray(b, dtype=VALUE_DTYPE)
    if b.shape != (n,):
        raise ValueError(f"b has shape {b.shape}, expected ({n},)")
    return b


class CSRMatrix:
    """An ``n_rows x n_cols`` sparse matrix in CSR format.

    Parameters
    ----------
    n_rows, n_cols:
        Matrix dimensions.
    indptr:
        Row pointer array of length ``n_rows + 1``; row ``i`` occupies the
        half-open slice ``indices[indptr[i]:indptr[i+1]]``.
    indices:
        Column index of every stored entry, sorted within each row.
    data:
        Numeric value of every stored entry (aligned with ``indices``).
    check:
        When true (default) validate the invariants: monotone ``indptr``,
        in-range and strictly increasing column indices per row.

    The arrays are stored read-only (views of writeable memory are copied);
    use :meth:`with_data` to obtain a matrix sharing the structure but
    carrying fresh values.
    """

    __slots__ = (
        "n_rows", "n_cols", "indptr", "indices", "data", "_row_program", "_lower_pattern"
    )

    def __init__(
        self,
        n_rows: int,
        n_cols: int,
        indptr,
        indices,
        data,
        *,
        check: bool = True,
    ) -> None:
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.indptr = _as_index_array(indptr, "indptr")
        self.indices = _as_index_array(indices, "indices")
        self.data = _as_value_array(data, "data")
        if check:
            self._validate()
        self.indptr = _frozen(self.indptr)
        self.indices = _frozen(self.indices)
        self.data = _frozen(self.data)
        #: SpTRSV's solve program: ``repro.kernels.sptrsv`` marks the first
        #: solve here and puts the matrix's ``LevelProgram`` here on the second
        self._row_program: object | None = None
        #: the strictly-lower entries ``(rows, cols)``, filled by
        #: ``repro.kernels.base.check_order`` on its first call
        self._lower_pattern: tuple | None = None

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        if self.n_rows < 0 or self.n_cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if self.indptr.shape[0] != self.n_rows + 1:
            raise ValueError(
                f"indptr has length {self.indptr.shape[0]}, expected {self.n_rows + 1}"
            )
        if self.indptr[0] != 0:
            raise ValueError("indptr[0] must be 0")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        nnz = int(self.indptr[-1])
        if self.indices.shape[0] != nnz or self.data.shape[0] != nnz:
            raise ValueError(
                "indices/data length does not match indptr[-1] "
                f"({self.indices.shape[0]}, {self.data.shape[0]} vs {nnz})"
            )
        if nnz:
            if self.indices.min() < 0 or self.indices.max() >= self.n_cols:
                raise ValueError("column index out of range")
            # Column indices must be strictly increasing inside each row.
            # diff < = 0 is allowed only at row boundaries.
            interior = np.ones(nnz - 1, dtype=bool) if nnz > 1 else np.zeros(0, dtype=bool)
            if nnz > 1:
                boundaries = self.indptr[1:-1]
                interior[boundaries[(boundaries > 0) & (boundaries < nnz)] - 1] = False
                bad = (np.diff(self.indices) <= 0) & interior
                if np.any(bad):
                    raise ValueError("column indices must be strictly increasing per row")

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        """``(n_rows, n_cols)``."""
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.indptr[-1])

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def row_nnz(self) -> np.ndarray:
        """Number of stored entries in each row (length ``n_rows``)."""
        return np.diff(self.indptr)

    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(columns, values)`` views of row ``i``."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def iter_rows(self) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        """Yield ``(i, columns, values)`` for every row."""
        for i in range(self.n_rows):
            cols, vals = self.row(i)
            yield i, cols, vals

    def _diagonal_mask(self) -> np.ndarray:
        """Boolean mask over stored entries marking ``(i, i)`` positions."""
        row_of = np.repeat(np.arange(self.n_rows, dtype=INDEX_DTYPE), np.diff(self.indptr))
        return self.indices == row_of

    def diagonal(self) -> np.ndarray:
        """Dense main diagonal (missing entries are zero); vectorized."""
        n = min(self.n_rows, self.n_cols)
        d = np.zeros(n, dtype=VALUE_DTYPE)
        mask = self._diagonal_mask()
        if mask.any():
            row_of = np.repeat(
                np.arange(self.n_rows, dtype=INDEX_DTYPE), np.diff(self.indptr)
            )
            hit_rows = row_of[mask]
            in_range = hit_rows < n
            d[hit_rows[in_range]] = self.data[mask][in_range]
        return d

    def has_full_diagonal(self) -> bool:
        """True when every row ``i < min(shape)`` stores entry ``(i, i)``."""
        n = min(self.n_rows, self.n_cols)
        if n == 0:
            return True
        mask = self._diagonal_mask()
        row_of = np.repeat(np.arange(self.n_rows, dtype=INDEX_DTYPE), np.diff(self.indptr))
        present = np.zeros(self.n_rows, dtype=bool)
        present[row_of[mask]] = True
        return bool(present[:n].all())

    # ------------------------------------------------------------------
    # derived matrices
    # ------------------------------------------------------------------
    def with_data(self, data: np.ndarray) -> "CSRMatrix":
        """A matrix with identical structure but new values (no re-check)."""
        data = _as_value_array(data, "data")
        if data.shape[0] != self.nnz:
            raise ValueError(f"data length {data.shape[0]} != nnz {self.nnz}")
        return CSRMatrix(self.n_rows, self.n_cols, self.indptr, self.indices, data, check=False)

    def copy(self) -> "CSRMatrix":
        """Deep copy (fresh arrays)."""
        return CSRMatrix(
            self.n_rows,
            self.n_cols,
            self.indptr.copy(),
            self.indices.copy(),
            self.data.copy(),
            check=False,
        )

    def transpose(self) -> "CSRMatrix":
        """Return the transpose, also in CSR (i.e. a CSC view of ``self``).

        Implemented as a vectorized counting sort over column indices, so it
        runs in O(nnz + n) without Python-level loops.
        """
        n_rows, n_cols, nnz = self.n_rows, self.n_cols, self.nnz
        counts = np.bincount(self.indices, minlength=n_cols)
        indptr_t = np.zeros(n_cols + 1, dtype=INDEX_DTYPE)
        np.cumsum(counts, out=indptr_t[1:])
        # Row id of every stored entry, then stable sort by column.
        row_of = np.repeat(np.arange(n_rows, dtype=INDEX_DTYPE), np.diff(self.indptr))
        order = np.argsort(self.indices, kind="stable")
        indices_t = row_of[order]
        data_t = self.data[order]
        return CSRMatrix(n_cols, n_rows, indptr_t, indices_t, data_t, check=False)

    def to_dense(self) -> np.ndarray:
        """Dense ``ndarray`` copy — intended for tests and tiny examples."""
        out = np.zeros(self.shape, dtype=VALUE_DTYPE)
        row_of = np.repeat(np.arange(self.n_rows, dtype=INDEX_DTYPE), np.diff(self.indptr))
        out[row_of, self.indices] = self.data
        return out

    def to_scipy(self):
        """Convert to a ``scipy.sparse.csr_matrix`` (copies the arrays)."""
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self.data.copy(), self.indices.copy(), self.indptr.copy()), shape=self.shape
        )

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Sparse matrix-vector product ``A @ x`` (segment-sum, vectorized)."""
        x = np.asarray(x, dtype=VALUE_DTYPE)
        if x.shape != (self.n_cols,):
            raise ValueError(f"x has shape {x.shape}, expected ({self.n_cols},)")
        products = self.data * x[self.indices]
        out = np.zeros(self.n_rows, dtype=VALUE_DTYPE)
        row_of = np.repeat(np.arange(self.n_rows, dtype=INDEX_DTYPE), np.diff(self.indptr))
        np.add.at(out, row_of, products)
        return out

    def permute_symmetric(self, perm: np.ndarray) -> "CSRMatrix":
        """Apply the symmetric permutation ``A[perm, :][:, perm]``.

        ``perm`` lists old indices in new order (i.e. ``new_row k`` is
        ``old_row perm[k]``), matching the convention of
        :mod:`repro.sparse.ordering`.
        """
        if not self.is_square:
            raise ValueError("symmetric permutation requires a square matrix")
        perm = _as_index_array(perm, "perm")
        n = self.n_rows
        if perm.shape[0] != n or np.any(np.sort(perm) != np.arange(n)):
            raise ValueError("perm must be a permutation of range(n)")
        inv = np.empty(n, dtype=INDEX_DTYPE)
        inv[perm] = np.arange(n, dtype=INDEX_DTYPE)

        row_counts = np.diff(self.indptr)
        indptr_p = np.zeros(n + 1, dtype=INDEX_DTYPE)
        np.cumsum(row_counts[perm], out=indptr_p[1:])
        # One stable sort on the key (new row, new column): entries sharing
        # both (duplicates) keep their stored order, as a per-row stable sort
        # would.
        new_cols = inv[self.indices]
        order = np.argsort(np.repeat(inv * n, row_counts) + new_cols, kind="stable")
        indices_p = new_cols[order]
        data_p = self.data[order]
        return CSRMatrix(n, n, indptr_p, indices_p, data_p, check=False)

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"

    def __eq__(self, other: object) -> bool:
        """Structural and numeric equality."""
        if not isinstance(other, CSRMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.data, other.data)
        )

    def __hash__(self) -> int:
        raise TypeError("CSRMatrix is not hashable")

    def __reduce__(self):
        # rebuilt through __init__: unpickled arrays come back writeable
        return (CSRMatrix, (self.n_rows, self.n_cols, self.indptr, self.indices, self.data))


def csr_from_coo(
    n_rows: int,
    n_cols: int,
    rows,
    cols,
    vals,
    *,
    sum_duplicates: bool = True,
) -> CSRMatrix:
    """Build a :class:`CSRMatrix` from COO triplets.

    Entries are sorted by ``(row, col)``; duplicates are summed when
    ``sum_duplicates`` is true, otherwise they raise ``ValueError``.
    """
    rows = _as_index_array(rows, "rows")
    cols = _as_index_array(cols, "cols")
    vals = _as_value_array(vals, "vals")
    if not (rows.shape == cols.shape == vals.shape):
        raise ValueError("rows/cols/vals must have equal length")
    if rows.size:
        if rows.min() < 0 or rows.max() >= n_rows:
            raise ValueError("row index out of range")
        if cols.min() < 0 or cols.max() >= n_cols:
            raise ValueError("column index out of range")
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    if rows.size:
        dup = (np.diff(rows) == 0) & (np.diff(cols) == 0)
        if np.any(dup):
            if not sum_duplicates:
                raise ValueError("duplicate (row, col) entries present")
            # Collapse runs of duplicates with a segmented sum.
            first = np.concatenate(([True], ~dup))
            group = np.cumsum(first) - 1
            n_groups = int(group[-1]) + 1
            summed = np.zeros(n_groups, dtype=VALUE_DTYPE)
            np.add.at(summed, group, vals)
            rows, cols, vals = rows[first], cols[first], summed
    indptr = np.zeros(n_rows + 1, dtype=INDEX_DTYPE)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    return CSRMatrix(n_rows, n_cols, indptr, cols, vals, check=False)


def csr_from_dense(dense: np.ndarray, *, tol: float = 0.0) -> CSRMatrix:
    """Build a :class:`CSRMatrix` from a dense array, dropping ``|a| <= tol``."""
    dense = np.asarray(dense, dtype=VALUE_DTYPE)
    if dense.ndim != 2:
        raise ValueError("dense input must be two-dimensional")
    mask = np.abs(dense) > tol
    rows, cols = np.nonzero(mask)
    return csr_from_coo(dense.shape[0], dense.shape[1], rows, cols, dense[rows, cols])


def csr_from_scipy(mat) -> CSRMatrix:
    """Build a :class:`CSRMatrix` from any ``scipy.sparse`` matrix."""
    m = mat.tocsr().sorted_indices()
    m.sum_duplicates()
    return CSRMatrix(m.shape[0], m.shape[1], m.indptr, m.indices, m.data, check=False)
