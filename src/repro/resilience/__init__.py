"""Resilience layer: fault injection, graceful degradation, resumable runs.

Four legs keep a grid run alive through pathological inputs:

* :mod:`repro.resilience.faults` — seeded, deterministic fault injection
  (:class:`FaultPlan` + the :func:`fault_point` hook, compiled down to one
  ``None`` check when dormant);
* :mod:`repro.resilience.degrade` — the ``hdagg → wavefront → serial``
  fallback chain;
* :mod:`repro.resilience.journal` — JSONL checkpointing so an interrupted
  suite run resumes bit-identically;
* :mod:`repro.resilience.failures` — structured per-matrix failure rows.

The degradation module is loaded lazily (it pulls in the scheduler and
verifier stacks); everything else imports nothing from the rest of
:mod:`repro`, so low-level layers can instrument themselves with
:func:`fault_point` without import cycles.
"""

from .failures import FailureRecord
from .faults import (
    CSR_CORRUPTIONS,
    FAULT_SITES,
    FaultError,
    FaultEvent,
    FaultPlan,
    FaultSpec,
    active_plan,
    armed,
    corrupt_csr_arrays,
    corrupt_schedule,
    fault_point,
)
from .journal import JOURNAL_VERSION, JournalError, RunJournal

__all__ = [
    "FAULT_SITES",
    "CSR_CORRUPTIONS",
    "FaultError",
    "FaultEvent",
    "FaultPlan",
    "FaultSpec",
    "fault_point",
    "active_plan",
    "armed",
    "corrupt_csr_arrays",
    "corrupt_schedule",
    "FailureRecord",
    "RunJournal",
    "JournalError",
    "JOURNAL_VERSION",
    # lazily loaded from .degrade (see __getattr__)
    "FALLBACK_CHAIN",
    "TERMINAL_FALLBACK",
    "fallback_chain",
    "DegradationError",
    "AttemptFailure",
    "InspectionOutcome",
    "inspect_with_fallback",
]

#: names resolved lazily so importing :mod:`repro.resilience.faults` from
#: low-level modules never drags in the scheduler/verifier stacks
_LAZY = {
    "FALLBACK_CHAIN",
    "TERMINAL_FALLBACK",
    "fallback_chain",
    "DegradationError",
    "AttemptFailure",
    "InspectionOutcome",
    "inspect_with_fallback",
}


def __getattr__(name: str):
    if name in _LAZY:
        from . import degrade

        return getattr(degrade, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
