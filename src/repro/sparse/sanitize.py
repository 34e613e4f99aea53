"""CSR input hardening: repair or reject malformed matrices, with a report.

:class:`~repro.sparse.csr.CSRMatrix` *enforces* its invariants — which
means malformed input (a truncated download, a buggy exporter, an injected
corruption) surfaces as a bare ``ValueError`` deep in a numpy check.  For
a production ingest path that is the wrong failure shape twice over: the
error names no defect class, and classes that are mechanically repairable
(unsorted columns, duplicates, droppable junk entries) kill the run
anyway.

:func:`sanitize_csr` is the structured front door.  It classifies every
defect into a :class:`SanitizeIssue` and then either

* **repairs** the repairable classes (``repair=True``): sorts columns,
  merges duplicates by summation, drops out-of-range columns and
  non-finite values, inserts missing unit diagonals when asked; or
* **rejects** with a :class:`CSRSanitizeError` carrying the full
  :class:`SanitizeReport` — one exception type, machine-readable issues,
  no raw numpy tracebacks.

Structural defects (wrong ``indptr`` length, regression, array-length
mismatch) are never repairable: once the row pointer lies, entry ownership
is unrecoverable.

Well-formed input passes through untouched — same object, empty report —
so wiring the sanitizer into hot ingest paths costs one vectorized
validation sweep and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

import numpy as np

from .csr import CSRMatrix, INDEX_DTYPE, VALUE_DTYPE

__all__ = [
    "SanitizeIssue",
    "SanitizeReport",
    "CSRSanitizeError",
    "sanitize_csr",
]

@dataclass(frozen=True)
class SanitizeIssue:
    """One defect class found in the input."""

    code: str
    count: int
    detail: str
    repaired: bool = False

    def describe(self) -> str:
        """``code x count: detail [repaired|rejected]``."""
        verdict = "repaired" if self.repaired else "rejected"
        return f"{self.code} x{self.count}: {self.detail} [{verdict}]"


@dataclass
class SanitizeReport:
    """Everything :func:`sanitize_csr` found (and did) for one matrix."""

    name: str = ""
    n_rows: int = 0
    n_cols: int = 0
    issues: List[SanitizeIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the input was well-formed as given."""
        return not self.issues

    @property
    def repaired(self) -> bool:
        """True when at least one defect was repaired."""
        return any(i.repaired for i in self.issues)

    def describe(self) -> str:
        """Multi-line account for logs and error messages."""
        head = f"sanitize {self.name or '<matrix>'} ({self.n_rows}x{self.n_cols})"
        if self.ok:
            return f"{head}: clean"
        return "\n".join([f"{head}: {len(self.issues)} issue(s)"] + [f"  {i.describe()}" for i in self.issues])

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "n_rows": self.n_rows,
            "n_cols": self.n_cols,
            "ok": self.ok,
            "repaired": self.repaired,
            "issues": [i.__dict__.copy() for i in self.issues],
        }


class CSRSanitizeError(ValueError):
    """Malformed CSR input that was rejected; carries the full report."""

    def __init__(self, report: SanitizeReport) -> None:
        super().__init__(report.describe())
        self.report = report

    # pool workers send exceptions back pickled: rebuild from the
    # constructor's arguments, not from ``args`` (the formatted message)
    def __reduce__(self):
        return type(self), (self.report,)


def _reject(report: SanitizeReport) -> "CSRSanitizeError":
    return CSRSanitizeError(report)


ArraysLike = Tuple[int, int, np.ndarray, np.ndarray, np.ndarray]


def _coerce_input(
    matrix: Union[CSRMatrix, ArraysLike, None],
    n_rows: Optional[int],
    n_cols: Optional[int],
    indptr,
    indices,
    data,
) -> Tuple[Optional[CSRMatrix], int, int, np.ndarray, np.ndarray, np.ndarray]:
    if matrix is not None:
        if isinstance(matrix, CSRMatrix):
            return (
                matrix,
                matrix.n_rows,
                matrix.n_cols,
                matrix.indptr,
                matrix.indices,
                matrix.data,
            )
        if isinstance(matrix, tuple) and len(matrix) == 5:
            n_rows, n_cols, indptr, indices, data = matrix
            return None, int(n_rows), int(n_cols), indptr, indices, data
        raise TypeError("matrix must be a CSRMatrix or a (n_rows, n_cols, indptr, indices, data) tuple")
    if n_rows is None or n_cols is None or indptr is None or indices is None or data is None:
        raise TypeError("pass a matrix or all of n_rows/n_cols/indptr/indices/data")
    return None, int(n_rows), int(n_cols), indptr, indices, data


def sanitize_csr(
    matrix: Union[CSRMatrix, ArraysLike, None] = None,
    *,
    n_rows: Optional[int] = None,
    n_cols: Optional[int] = None,
    indptr=None,
    indices=None,
    data=None,
    repair: bool = True,
    ensure_diagonal: bool = False,
    name: str = "",
) -> Tuple[CSRMatrix, SanitizeReport]:
    """Validate, and optionally repair, CSR input.

    Accepts a :class:`CSRMatrix`, a raw ``(n_rows, n_cols, indptr,
    indices, data)`` tuple (the shape fault injection and file readers
    produce), or the five pieces as keywords.  Returns ``(matrix,
    report)``; a well-formed :class:`CSRMatrix` input is returned as the
    same object.

    With ``repair=False`` any defect rejects; with ``repair=True`` the
    repairable classes are fixed (recorded in the report) and only
    structural corruption rejects.  ``ensure_diagonal=True`` additionally
    demands a fully stored main diagonal, inserting unit entries under
    repair — the triangular kernels require the diagonal to exist.

    Raises :class:`CSRSanitizeError` on rejection; never raises raw numpy
    errors for malformed content.
    """
    original, n_rows_, n_cols_, indptr_a, indices_a, data_a = _coerce_input(
        matrix, n_rows, n_cols, indptr, indices, data
    )
    report = SanitizeReport(name=name, n_rows=n_rows_, n_cols=n_cols_)

    def fatal(code: str, detail: str, count: int = 1) -> "CSRSanitizeError":
        report.issues.append(SanitizeIssue(code, count, detail, repaired=False))
        return _reject(report)

    try:
        indptr_a = np.ascontiguousarray(indptr_a, dtype=INDEX_DTYPE)
        indices_a = np.ascontiguousarray(indices_a, dtype=INDEX_DTYPE)
        data_a = np.ascontiguousarray(data_a, dtype=VALUE_DTYPE)
    except (TypeError, ValueError) as exc:
        raise fatal("bad_arrays", f"arrays not coercible to CSR dtypes: {exc}") from exc

    # ---- structural checks: never repairable -------------------------
    if n_rows_ < 0 or n_cols_ < 0:
        raise fatal("bad_shape", f"negative dimensions ({n_rows_}, {n_cols_})")
    if indptr_a.ndim != 1 or indices_a.ndim != 1 or data_a.ndim != 1:
        raise fatal("bad_arrays", "indptr/indices/data must be one-dimensional")
    if indptr_a.shape[0] != n_rows_ + 1:
        raise fatal(
            "indptr_length", f"indptr has length {indptr_a.shape[0]}, expected {n_rows_ + 1}"
        )
    if n_rows_ >= 0 and indptr_a.shape[0] and indptr_a[0] != 0:
        raise fatal("indptr_start", f"indptr[0] is {int(indptr_a[0])}, expected 0")
    regressions = int(np.count_nonzero(np.diff(indptr_a) < 0))
    if regressions:
        raise fatal(
            "indptr_regression",
            f"indptr decreases at {regressions} position(s) — row ownership is unrecoverable",
            count=regressions,
        )
    nnz = int(indptr_a[-1]) if indptr_a.shape[0] else 0
    if indices_a.shape[0] != nnz or data_a.shape[0] != nnz:
        raise fatal(
            "length_mismatch",
            f"indices/data lengths ({indices_a.shape[0]}, {data_a.shape[0]}) "
            f"do not match indptr[-1] ({nnz})",
        )

    # ---- entry-level checks: repairable ------------------------------
    def issue(code: str, count: int, detail: str) -> None:
        report.issues.append(SanitizeIssue(code, count, detail, repaired=repair))

    row_of = np.repeat(np.arange(n_rows_, dtype=INDEX_DTYPE), np.diff(indptr_a))
    cols = indices_a
    vals = data_a
    dirty = False

    bad_range = (cols < 0) | (cols >= n_cols_)
    n_bad_range = int(np.count_nonzero(bad_range))
    if n_bad_range:
        issue("col_out_of_range", n_bad_range, f"column indices outside [0, {n_cols_})")
    bad_finite = ~np.isfinite(vals)
    n_bad_finite = int(np.count_nonzero(bad_finite))
    if n_bad_finite:
        issue("nonfinite_data", n_bad_finite, "NaN/Inf stored values")
    drop = bad_range | bad_finite
    if drop.any():
        keep = ~drop
        row_of, cols, vals = row_of[keep], cols[keep], vals[keep]
        dirty = True

    # per-row ordering (column must strictly increase inside a row)
    if cols.shape[0] > 1:
        same_row = np.diff(row_of) == 0
        n_unsorted = int(np.count_nonzero((np.diff(cols) < 0) & same_row))
        if n_unsorted:
            issue("col_unsorted", n_unsorted, "columns not sorted within rows")
            order = np.lexsort((cols, row_of))
            row_of, cols, vals = row_of[order], cols[order], vals[order]
            dirty = True
        dup = (np.diff(cols) == 0) & (np.diff(row_of) == 0)
        n_dup = int(np.count_nonzero(dup))
        if n_dup:
            issue("col_duplicate", n_dup, "duplicate (row, col) entries (summed under repair)")
            first = np.concatenate(([True], ~dup))
            group = np.cumsum(first) - 1
            summed = np.zeros(int(group[-1]) + 1, dtype=VALUE_DTYPE)
            np.add.at(summed, group, vals)
            row_of, cols, vals = row_of[first], cols[first], summed
            dirty = True

    if ensure_diagonal and n_rows_ == n_cols_ and n_rows_ > 0:
        present = np.zeros(n_rows_, dtype=bool)
        present[row_of[cols == row_of]] = True
        missing = np.nonzero(~present)[0]
        if missing.size:
            issue(
                "missing_diagonal",
                int(missing.size),
                "rows without a stored (i, i) entry (unit entries inserted under repair)",
            )
            row_of = np.concatenate([row_of, missing.astype(INDEX_DTYPE)])
            cols = np.concatenate([cols, missing.astype(INDEX_DTYPE)])
            vals = np.concatenate([vals, np.ones(missing.size, dtype=VALUE_DTYPE)])
            order = np.lexsort((cols, row_of))
            row_of, cols, vals = row_of[order], cols[order], vals[order]
            dirty = True

    if report.issues and not repair:
        # mark nothing as repaired: the caller asked for reject-only
        report.issues = [
            SanitizeIssue(i.code, i.count, i.detail, repaired=False) for i in report.issues
        ]
        raise _reject(report)

    if not dirty:
        if original is not None:
            return original, report
        return CSRMatrix(n_rows_, n_cols_, indptr_a, indices_a, data_a, check=False), report

    new_indptr = np.zeros(n_rows_ + 1, dtype=INDEX_DTYPE)
    np.cumsum(np.bincount(row_of, minlength=n_rows_), out=new_indptr[1:])
    return CSRMatrix(n_rows_, n_cols_, new_indptr, cols, vals, check=False), report
