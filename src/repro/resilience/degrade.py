"""Graceful inspector degradation: the fallback chain.

Böhnlein et al. (PAPERS.md) show scheduler cost and quality vary wildly
across adversarial DAG shapes; an inspector that is excellent on meshes
can stall or misbehave on a pathological input.  In a solver pipeline the
right response is not a crash but a *declared downgrade*: run the
requested inspector, and on an exception or a schedule that fails
:func:`~repro.analysis.verifier.assert_schedule_safe`, fall down a fixed
chain toward schedules that cannot fail:

    hdagg / spmp / lbc / dagp / mkl / coarsenk  →  wavefront  →  serial

``wavefront`` is the universal mid-point (one Kahn sweep, no balancing
heuristics to go wrong) and ``serial`` the terminal fallback (trivially
safe for any DAG).  The harness stamps the downgrade into
``RunRecord.degraded`` / ``degraded_from`` so a degraded grid cell is
visible in every table instead of silently wrong or fatally absent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from ..core.schedule import Schedule
from ..graph.dag import DAG
from .faults import fault_point

__all__ = [
    "FALLBACK_CHAIN",
    "TERMINAL_FALLBACK",
    "fallback_chain",
    "DegradationError",
    "AttemptFailure",
    "InspectionOutcome",
    "inspect_with_fallback",
]

#: Next algorithm to try when one fails.  Anything unlisted falls straight
#: to the terminal fallback.
FALLBACK_CHAIN: Dict[str, str] = {
    "hdagg": "wavefront",
    "spmp": "wavefront",
    "lbc": "wavefront",
    "dagp": "wavefront",
    "mkl": "wavefront",
    "coarsenk": "wavefront",
    "wavefront": "serial",
}

#: The end of every chain: a sequential schedule is safe for any DAG.
TERMINAL_FALLBACK = "serial"


def fallback_chain(algorithm: str) -> List[str]:
    """The full attempt order for ``algorithm`` (itself first)."""
    chain = [algorithm]
    seen = {algorithm}
    cur = algorithm
    while cur != TERMINAL_FALLBACK:
        cur = FALLBACK_CHAIN.get(cur, TERMINAL_FALLBACK)
        if cur in seen:  # defensive: a mis-edited chain must not loop
            break
        chain.append(cur)
        seen.add(cur)
    return chain


class DegradationError(RuntimeError):
    """Every algorithm in the fallback chain failed (including serial)."""

    def __init__(self, requested: str, failures: List["AttemptFailure"]) -> None:
        detail = "; ".join(f"{f.algorithm}: {f.error_type}: {f.message}" for f in failures)
        super().__init__(f"no fallback produced a safe schedule for {requested!r} ({detail})")
        self.requested = requested
        self.failures = failures

    # pool workers send exceptions back pickled: rebuild from the
    # constructor's arguments, not from ``args`` (the formatted message)
    def __reduce__(self):
        return type(self), (self.requested, self.failures)


@dataclass(frozen=True)
class AttemptFailure:
    """Why one link of the chain was abandoned."""

    algorithm: str
    error_type: str
    message: str


@dataclass
class InspectionOutcome:
    """Result of :func:`inspect_with_fallback`.

    ``algorithm`` is the inspector that actually produced ``schedule``;
    ``degraded_from`` is the comma-joined list of algorithms that failed
    before it (empty when the requested inspector succeeded — the dormant
    case, in which the outcome is indistinguishable from a direct call).
    ``context`` is the producing link's pass context: its intermediate
    artifacts seed incremental repair.
    """

    schedule: Schedule
    algorithm: str
    requested: str
    degraded: bool = False
    degraded_from: str = ""
    failures: List[AttemptFailure] = field(default_factory=list)
    context: Any = None


def _call_inspector(
    algorithm: str,
    g: DAG,
    cost: np.ndarray,
    p: int,
    *,
    epsilon: Optional[float],
):
    """Run one link of the chain; returns its pass context."""
    from ..passes import run_scheduler

    fault_point("inspector", label=algorithm)
    # every link takes epsilon; its group seeds only the inputs it declares
    return run_scheduler(algorithm, g, cost, p, epsilon)


def inspect_with_fallback(
    algorithm: str,
    g: DAG,
    cost: np.ndarray,
    p: int,
    *,
    epsilon: Optional[float] = None,
    validate: bool = True,
) -> InspectionOutcome:
    """Build a schedule for ``algorithm``, degrading down the chain on failure.

    With ``validate`` each link must pass ``assert_schedule_safe`` before
    being accepted — an inspector that *returns* an unsafe schedule is
    treated exactly like one that raised.
    The terminal ``serial`` link failing too raises
    :class:`DegradationError`; ``KeyboardInterrupt``/``SystemExit`` always
    propagate.
    """
    from ..analysis.verifier import assert_schedule_safe

    failures: List[AttemptFailure] = []
    for algo in fallback_chain(algorithm):
        try:
            context = _call_inspector(algo, g, cost, p, epsilon=epsilon)
            schedule = context["Schedule"]
            if validate:
                assert_schedule_safe(schedule, g)
        except Exception as exc:
            failures.append(AttemptFailure(algo, type(exc).__name__, str(exc)))
            continue
        degraded = algo != algorithm
        return InspectionOutcome(
            schedule=schedule,
            algorithm=algo,
            requested=algorithm,
            degraded=degraded,
            degraded_from=",".join(f.algorithm for f in failures) if degraded else "",
            failures=failures,
            context=context,
        )
    raise DegradationError(algorithm, failures)
