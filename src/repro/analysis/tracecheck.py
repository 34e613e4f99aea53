"""Happens-before trace checker for the core stepper.

The verifier and race detector certify the *schedule*; this module checks
one *execution* of it.  :func:`repro.runtime.executor.run_cores` steps the
cores' programs under the schedule's own synchronisation and optionally
records an event log through a :class:`TraceRecorder`:

* ``("exec", core, v)`` — ``v``'s kernel body finished on ``core``
  (recorded before ``v`` is marked done);
* ``("acquire", core, u)`` — p2p sync only: ``core`` observed ``u``'s done
  flag (recorded once every in-edge of the waiting vertex is done, hence
  always after ``u``'s exec record);
* ``("barrier", core, k)`` — ``core`` passed the barrier closing level
  ``k``.

:func:`check_trace` replays the log through a vector-clock analysis: each
core owns a clock component; exec increments the owner's component and
snapshots the clock as the vertex's *write clock*; acquire joins the
dependence's write clock into the reader (the release/acquire pair of the
flag wait); a barrier joins every core's clock.  A dependence ``u -> v``
is satisfied iff ``u``'s write clock happens-before ``v``'s exec — checked
componentwise.  Anything the synchronisation that *actually happened*
cannot order is a violation, even when the stepped order ran ``u`` first.
So one deterministic run certifies the schedule's synchronisation: p2p
progress is monotone (a done flag is never cleared, an enabled core stays
enabled), so every interleaving gets stuck in the states the stepper
finds; under barrier sync a dependence inside one level raises in the
stepper or is unordered here, whichever core runs first.

Complexity: O(events * p + E * p) for p cores, on Python scalars.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import gt
from typing import Dict, List, Optional, Tuple

from ..graph.dag import DAG

__all__ = ["TraceRecorder", "HappensBeforeViolation", "TraceReport", "check_trace"]


class TraceRecorder:
    """Totally ordered event log (the core stepper's tracing hook).

    Every event gets a unique, monotonically increasing sequence number;
    per-core subsequences are therefore in program order, which is all the
    checker relies on.
    """

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: List[Tuple[int, str, int, int]] = []

    def record(self, kind: str, core: int, a: int) -> None:
        """Append ``(seq, kind, core, a)``."""
        events = self.events
        events.append((len(events), kind, core, int(a)))

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True)
class HappensBeforeViolation:
    """One ordering defect observed in the replayed execution."""

    kind: str  # "unordered-dependence", "missing-dependence", "duplicate-exec",
    #            "never-executed", "barrier-mismatch", "acquire-before-exec"
    vertex: int
    dependence: int
    core: int
    dep_core: int

    def describe(self) -> str:
        if self.kind == "unordered-dependence":
            return (
                f"vertex {self.vertex} (core {self.core}) read dependence "
                f"{self.dependence} (core {self.dep_core}) without a happens-before edge"
            )
        if self.kind == "missing-dependence":
            return (
                f"vertex {self.vertex} (core {self.core}) executed before its "
                f"dependence {self.dependence} executed at all"
            )
        if self.kind == "duplicate-exec":
            return f"vertex {self.vertex} executed twice (cores {self.dep_core}, {self.core})"
        if self.kind == "never-executed":
            return f"vertex {self.vertex} never executed"
        if self.kind == "acquire-before-exec":
            return (
                f"core {self.core} acquired flag of vertex {self.dependence} "
                f"before that vertex's exec event"
            )
        return f"barrier count mismatch across cores (core {self.core})"


@dataclass
class TraceReport:
    """Outcome of :func:`check_trace`."""

    ok: bool
    n_events: int
    n_executed: int
    violations: List[HappensBeforeViolation] = field(default_factory=list)

    def describe(self) -> str:
        if self.ok:
            return f"trace clean: {self.n_events} events, {self.n_executed} vertices ordered"
        lines = [f"TRACE VIOLATIONS ({len(self.violations)}):"]
        lines.extend(f"  {v.describe()}" for v in self.violations)
        return "\n".join(lines)


def check_trace(
    events: List[Tuple[int, str, int, int]],
    g: DAG,
    *,
    n_cores: Optional[int] = None,
    expect_all: bool = True,
    max_violations: int = 16,
) -> TraceReport:
    """Vector-clock replay of a recorded execution against the DAG ``g``.

    ``events`` is :attr:`TraceRecorder.events` (or any iterable of
    ``(seq, kind, core, arg)`` tuples).  ``expect_all`` additionally demands
    that every DAG vertex was executed exactly once.
    """
    if n_cores is None:
        n_cores = max((e[2] for e in events), default=0) + 1
    p = max(1, int(n_cores))
    violations: List[HappensBeforeViolation] = []

    def add(v: HappensBeforeViolation) -> None:
        if len(violations) < max_violations:
            violations.append(v)

    # split per core, preserving seq order; count barriers per core
    per_core: List[List[Tuple[int, str, int]]] = [[] for _ in range(p)]
    for seq, kind, core, a in sorted(events):
        per_core[core].append((seq, kind, a))
    barrier_counts = [sum(1 for e in stream if e[1] == "barrier") for stream in per_core]
    n_epochs = max(barrier_counts, default=0) + 1
    if len(set(barrier_counts)) > 1:
        worst = barrier_counts.index(min(barrier_counts))
        add(HappensBeforeViolation("barrier-mismatch", -1, -1, worst, -1))

    # epoch-partitioned streams: epoch e of a core is everything between its
    # (e-1)-th and e-th barrier events
    epochs: List[List[Tuple[int, str, int, int]]] = [[] for _ in range(n_epochs)]
    for core, stream in enumerate(per_core):
        e = 0
        for seq, kind, a in stream:
            if kind == "barrier":
                e += 1
                continue
            epochs[e].append((seq, kind, core, a))

    vc: List[List[int]] = [[0] * p for _ in range(p)]
    write_clock: Dict[int, Tuple[int, ...]] = {}
    exec_core: Dict[int, int] = {}
    in_ptr, in_idx = g.in_ptr.tolist(), g.in_idx.tolist()

    for epoch_events in epochs:
        # a barrier epoch boundary joins all clocks; within an epoch the
        # global sequence order is a valid serialisation because acquire
        # records always follow the exec record they observed
        for _, kind, core, a in sorted(epoch_events):
            if kind == "acquire":
                w = write_clock.get(a)
                if w is None:
                    add(HappensBeforeViolation("acquire-before-exec", -1, a, core, -1))
                else:
                    vc[core] = list(map(max, vc[core], w))
            elif kind == "exec":
                v = a
                if v in exec_core:
                    add(HappensBeforeViolation("duplicate-exec", v, -1, core, exec_core[v]))
                clock = vc[core]
                clock[core] += 1
                for u in in_idx[in_ptr[v] : in_ptr[v + 1]]:
                    w = write_clock.get(u)
                    if w is None:
                        add(HappensBeforeViolation("missing-dependence", v, u, core, -1))
                    elif any(map(gt, w, clock)):
                        add(
                            HappensBeforeViolation(
                                "unordered-dependence", v, u, core, exec_core.get(u, -1)
                            )
                        )
                write_clock[v] = tuple(clock)
                exec_core[v] = core
        # barrier: every core's clock joins to the common maximum
        joined = [max(column) for column in zip(*vc)]
        vc = [list(joined) for _ in range(p)]

    if expect_all:
        for v in range(g.n):
            if v not in exec_core:
                add(HappensBeforeViolation("never-executed", v, -1, -1, -1))

    return TraceReport(
        ok=not violations,
        n_events=len(events),
        n_executed=len(exec_core),
        violations=violations,
    )
