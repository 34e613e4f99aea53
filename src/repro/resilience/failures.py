"""Structured failure rows for fault-isolated suite runs.

When :meth:`repro.suite.harness.Harness.run_suite` runs with failure
isolation, a matrix whose run raises — malformed input, inspector bug,
in the parent or in a pool worker — degrades to *one structured row*
rather than killing the whole grid.  :class:`FailureRecord` is that row:
enough context to reproduce (matrix, error type/message, fault site) and a
stable dict form for the JSONL journal and ``--json`` dumps.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

__all__ = ["FailureRecord"]


@dataclass
class FailureRecord:
    """One matrix's failure in a fault-isolated suite run.

    ``site`` names the injected fault site when a
    :class:`~repro.resilience.faults.FaultError` caused it.
    """

    matrix: str
    family: str
    error_type: str
    message: str
    site: Optional[str] = field(default=None)

    def describe(self) -> str:
        """One-line human account for progress logs and stderr summaries."""
        where = f" [site={self.site}]" if self.site else ""
        return f"{self.matrix}{where}: {self.error_type}: {self.message}"

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, blob: dict) -> "FailureRecord":
        """Inverse of :meth:`as_dict` (journal reload); unknown keys, such
        as the ``stage`` and ``attempts`` of older journals, are dropped."""
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in blob.items() if k in names})
