"""One-call schedule verification: structure, dependences, numerics.

``verify_schedule`` bundles every check the framework can make against a
schedule into a single call with a structured verdict:

1. **structural** — partition cover and core uniqueness
   (:meth:`Schedule.check_structure`);
2. **dependences** — every DAG edge ordered correctly.  Both come from one
   :func:`~repro.analysis.verifier.verify_dependences` call, which runs the
   structural check once and the edge predicate once;
3. **numerics** — the kernel executed through the schedule (canonical order
   plus adversarial interleavings) matches the sequential reference.

Use it in tests of new inspectors, after deserialising a schedule from
elsewhere, or any time "is this schedule actually safe?" needs one answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from ..graph.dag import DAG
from ..kernels.base import KernelError, SparseKernel
from ..sparse.csr import CSRMatrix
from .schedule import Schedule, ScheduleError

__all__ = ["VerificationReport", "verify_schedule"]


@dataclass
class VerificationReport:
    """Outcome of :func:`verify_schedule`."""

    structural_ok: bool
    dependences_ok: bool
    numerics_ok: bool
    interleavings_checked: int
    errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Everything passed."""
        return self.structural_ok and self.dependences_ok and self.numerics_ok

    def raise_if_failed(self) -> None:
        """Raise :class:`ScheduleError` with every recorded failure."""
        if not self.ok:
            raise ScheduleError("; ".join(self.errors) or "verification failed")


def verify_schedule(
    kernel: SparseKernel,
    operand: CSRMatrix,
    schedule: Schedule,
    g: DAG | None = None,
    b: np.ndarray | None = None,
    *,
    interleavings: int = 2,
    rtol: float = 1e-9,
) -> VerificationReport:
    """Run all checks; never raises — inspect / ``raise_if_failed`` the report."""
    if g is None:
        g = kernel.dag(operand)
    errors: List[str] = []

    from ..analysis.verifier import verify_dependences

    report = verify_dependences(schedule, g, max_witnesses=1, stamp_meta=False)
    structural_ok = report.structural_error is None
    dependences_ok = report.ok
    if not structural_ok:
        errors.append(f"structural: {report.structural_error}")
    elif not dependences_ok:
        errors.append(f"dependences: {report.witnesses[0].describe()}")

    numerics_ok = False
    checked = 0
    if dependences_ok:
        from ..runtime.executor import execute_schedule

        try:
            reference = kernel.reference(operand, b)
            results = [execute_schedule(kernel, operand, schedule, b)]
            for seed in range(interleavings):
                results.append(
                    execute_schedule(kernel, operand, schedule, b, interleave_seed=seed)
                )
                checked += 1
            numerics_ok = True
            for got in results:
                ref_arr = reference.data if isinstance(reference, CSRMatrix) else reference
                got_arr = got.data if isinstance(got, CSRMatrix) else got
                if not np.allclose(got_arr, ref_arr, rtol=rtol, atol=1e-12):
                    numerics_ok = False
                    errors.append("numerics: scheduled result differs from reference")
                    break
        except (KernelError, ScheduleError, ValueError) as exc:
            numerics_ok = False
            errors.append(f"numerics: {exc}")

    return VerificationReport(
        structural_ok=structural_ok,
        dependences_ok=dependences_ok,
        numerics_ok=numerics_ok,
        interleavings_checked=checked,
        errors=errors,
    )
