"""Dependence verifier: certify or refute any :class:`Schedule` statically.

The verifier is scheduler-agnostic — it never looks at how a schedule was
constructed, only at the schedule coordinates (coarsened-wavefront level,
width-partition id, intra-partition position) of every DAG edge's endpoints.
A schedule is *certified* when every edge ``u -> v`` satisfies

* ``level[u] < level[v]`` (ordered by an inter-wavefront barrier /
  the p2p no-mid-stream-wait invariant), or
* ``partition[u] == partition[v]`` and ``position[u] < position[v]``
  (ordered by the sequential sweep of one width-partition).

This is the safety invariant both sync models rely on (paper Section IV-A).
:meth:`Schedule.validate` and this verifier share both halves of the check,
so they cannot drift apart: the one structural check
(:meth:`Schedule.check_structure` — an exact cover of the vertices and
unique cores per level) and the one edge predicate
(:func:`repro.core.schedule.dependence_witnesses`), evaluated once per call
for both the violation count and the witnesses.  On refutation the
verifier extracts minimal counterexample witnesses — the mis-ordered edges
with full level/partition/position context, earliest execution point first.

Complexity: O(V + E) array passes over the schedule's flat arrays, plus a
sort over only the violating edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..core.schedule import DependenceWitness, Schedule, ScheduleError, dependence_witnesses
from ..graph.dag import DAG
from ..runtime.perf import StageTimer

__all__ = [
    "DependenceReport",
    "verify_dependences",
    "find_dependence_witnesses",
    "assert_schedule_safe",
]

#: ``Schedule.meta["stage_seconds"]`` key under which verification time lands.
VERIFY_STAGE = "verify"


@dataclass
class DependenceReport:
    """Outcome of :func:`verify_dependences`."""

    ok: bool
    n_edges: int
    n_violations: int
    witnesses: List[DependenceWitness] = field(default_factory=list)
    structural_error: Optional[str] = None
    seconds: float = 0.0

    @property
    def certified(self) -> bool:
        """True when the schedule is proven safe (alias of ``ok``)."""
        return self.ok

    def describe(self) -> str:
        """Multi-line account for logs and the ``analyze`` CLI."""
        if self.ok:
            return f"certified: {self.n_edges} edges ordered ({self.seconds * 1e3:.2f} ms)"
        lines = [f"REFUTED: {self.n_violations} of {self.n_edges} edges mis-ordered"]
        if self.structural_error:
            lines.append(f"structural: {self.structural_error}")
        lines.extend(f"  {w.describe()}" for w in self.witnesses)
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "n_edges": self.n_edges,
            "n_violations": self.n_violations,
            "structural_error": self.structural_error,
            "witnesses": [w.as_dict() for w in self.witnesses],
            "seconds": self.seconds,
        }


def find_dependence_witnesses(
    schedule: Schedule, g: DAG, *, max_witnesses: int = 16
) -> List[DependenceWitness]:
    """All (up to ``max_witnesses``) mis-ordered edges, minimal first."""
    return _violations(schedule, g, max_witnesses)[1]


def _violations(
    schedule: Schedule, g: DAG, max_witnesses: int
) -> Tuple[int, List[DependenceWitness]]:
    if g.n_edges == 0:
        return 0, []
    return dependence_witnesses(
        *schedule.coordinates(), *g.edge_list(), max_witnesses=max_witnesses
    )


def verify_dependences(
    schedule: Schedule,
    g: DAG,
    *,
    max_witnesses: int = 16,
    structural: bool = True,
    stamp_meta: bool = True,
) -> DependenceReport:
    """Certify or refute ``schedule`` against ``g``; never raises.

    With ``structural`` set (default) the partition-cover / core-uniqueness
    invariants are checked first — a schedule that does not even cover the
    vertex set cannot be reasoned about edge-wise.  With ``stamp_meta`` the
    verification wall-clock is accumulated into
    ``schedule.meta["stage_seconds"]["verify"]`` so harness records report
    verifier runtime next to the inspector stages.
    """
    timer = StageTimer()
    structural_error: Optional[str] = None
    witnesses: List[DependenceWitness] = []
    n_violations = 0
    with timer.stage(VERIFY_STAGE):
        if structural:
            try:
                schedule.check_structure(g.n)
            except ScheduleError as exc:
                structural_error = str(exc)
        if structural_error is None:
            n_violations, witnesses = _violations(schedule, g, max_witnesses)
    if stamp_meta:
        stages = schedule.meta.setdefault("stage_seconds", {})
        stages[VERIFY_STAGE] = stages.get(VERIFY_STAGE, 0.0) + timer.total
    return DependenceReport(
        ok=structural_error is None and n_violations == 0,
        n_edges=g.n_edges,
        n_violations=n_violations,
        witnesses=witnesses,
        structural_error=structural_error,
        seconds=timer.total,
    )


def assert_schedule_safe(schedule: Schedule, g: DAG) -> None:
    """Harness-facing wrapper: raise a witness-carrying error on refutation.

    Equivalent to ``schedule.validate(g)`` but routes through the verifier so
    the verification time is stamped into the schedule's stage timings and
    the raised :class:`ScheduleError` always carries the minimal witness.
    """
    report = verify_dependences(schedule, g, max_witnesses=1)
    if not report.ok:
        if report.structural_error is not None:
            raise ScheduleError(report.structural_error)
        raise ScheduleError(report.witnesses[0].describe(), witness=report.witnesses[0])
