"""Scheduler-agnostic correctness analyses for HDagg-style schedules.

Three independent checks, ordered by what they trust:

* :mod:`~repro.analysis.verifier` trusts the DAG and checks the schedule
  against it (every edge ordered by level or intra-partition position),
  extracting a minimal counterexample witness on failure;
* :mod:`~repro.analysis.footprint` / :mod:`~repro.analysis.races` trust
  only the matrix: per-iteration read/write sets are derived directly from
  the CSR structure and same-wavefront cross-partition conflicts are
  flagged statically — catching DAG-construction bugs the verifier is
  blind to;
* :mod:`~repro.analysis.tracecheck` trusts neither and checks an actual
  *execution* — one deterministic run of the cores under the schedule's
  own barriers or point-to-point waits
  (:func:`repro.runtime.executor.run_cores`) — replaying its event log
  through vector clocks.

:mod:`~repro.analysis.mutate` closes the loop: known-unsafe schedule edits
that must be caught, asserted in CI via ``hdagg-bench analyze``
(:mod:`~repro.analysis.cli`).
"""

from .footprint import (
    FOOTPRINTS,
    Footprint,
    implied_dag,
    kernel_footprint,
    spic0_footprint,
    spilu0_footprint,
    sptrsv_footprint,
)
from .mutate import MUTATIONS, MutationResult, apply_mutation, run_mutation_suite
from .races import RaceReport, RaceWitness, detect_races
from .tracecheck import HappensBeforeViolation, TraceRecorder, TraceReport, check_trace
from .verifier import (
    DependenceReport,
    assert_schedule_safe,
    find_dependence_witnesses,
    verify_dependences,
)

__all__ = [
    "DependenceReport",
    "verify_dependences",
    "find_dependence_witnesses",
    "assert_schedule_safe",
    "Footprint",
    "FOOTPRINTS",
    "kernel_footprint",
    "sptrsv_footprint",
    "spic0_footprint",
    "spilu0_footprint",
    "implied_dag",
    "RaceWitness",
    "RaceReport",
    "detect_races",
    "TraceRecorder",
    "TraceReport",
    "HappensBeforeViolation",
    "check_trace",
    "MutationResult",
    "MUTATIONS",
    "apply_mutation",
    "run_mutation_suite",
]
