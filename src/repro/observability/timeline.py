"""Per-core execution timelines: busy / wait / idle segments.

The paper's Figures 7-9 reason about *where cores spend time* —
synchronisation stalls versus useful work versus idling at level
boundaries.  This module gives both executors the same per-core segment
representation:

* the **core stepper** (:func:`repro.runtime.executor.run_cores`) records
  wall-clock segments of its one-thread stepped order into a
  :class:`TimelineRecorder` — ``busy`` per vertex, ``barrier_wait`` at
  each level barrier, ``p2p_wait`` with the (vertex, dependence) pair a
  core was blocked on;
* the **simulator** (:func:`repro.runtime.simulator.simulate` with
  ``collect_timeline=True``) emits the same structure in *model cycles*,
  which is deterministic and therefore what the trace-vs-model
  differential tests compare against :mod:`repro.metrics.load_balance`.

``finalize`` closes a recorder into a :class:`CoreTimeline`: idle segments
are derived as the per-core complement over the wall span, so by
construction ``busy + waits + idle == wall`` per core — and
:meth:`CoreTimeline.check_invariants` asserts exactly that, plus
non-overlap, which the property suite pins down.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

__all__ = ["Segment", "TimelineRecorder", "CoreTimeline", "SEGMENT_KINDS"]

#: Segment kinds in display order.  ``idle`` is always derived, never recorded.
SEGMENT_KINDS = ("busy", "barrier_wait", "p2p_wait", "idle")


@dataclass(frozen=True)
class Segment:
    """One interval of one core's time.

    ``vertex``/``dependence`` attribute waits and work to schedule
    entities: a ``busy`` segment names the vertex executed, a ``p2p_wait``
    segment names the vertex that was blocked *and* the dependence it
    waited for (point-to-point wait attribution); -1 where not applicable.
    ``level`` is the coarsened wavefront, -1 for p2p schedules.
    """

    core: int
    kind: str
    t0: float
    t1: float
    vertex: int = -1
    dependence: int = -1
    level: int = -1

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def as_dict(self) -> dict:
        out = {"core": self.core, "kind": self.kind, "t0": self.t0, "t1": self.t1}
        if self.vertex >= 0:
            out["vertex"] = self.vertex
        if self.dependence >= 0:
            out["dependence"] = self.dependence
        if self.level >= 0:
            out["level"] = self.level
        return out


class TimelineRecorder:
    """Collects per-core segments, one list per core.

    Cores must be registered up front (:meth:`open`) or lazily on first
    record; the hot path is a plain ``list.append``.  ``clock`` is
    injectable for deterministic tests (the core stepper reads it for
    every timestamp).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._segments: Dict[int, List[Segment]] = {}
        self.wall_t0: Optional[float] = None
        self.wall_t1: Optional[float] = None

    def open(self, n_cores: int) -> None:
        """Pre-register cores ``0..n_cores-1`` (so empty cores still report)."""
        for c in range(n_cores):
            self._segments.setdefault(c, [])

    def record(
        self,
        core: int,
        kind: str,
        t0: float,
        t1: float,
        *,
        vertex: int = -1,
        dependence: int = -1,
        level: int = -1,
    ) -> None:
        """Append one segment to ``core``'s own list."""
        if kind not in SEGMENT_KINDS or kind == "idle":
            raise ValueError(f"cannot record segment kind {kind!r}")
        self._segments.setdefault(core, []).append(
            Segment(core=core, kind=kind, t0=t0, t1=t1,
                    vertex=vertex, dependence=dependence, level=level)
        )

    def finalize(self) -> "CoreTimeline":
        """Close the recorder into a :class:`CoreTimeline` with derived idle.

        The wall span defaults to the envelope of all recorded segments
        when the executor did not stamp ``wall_t0``/``wall_t1``.
        """
        all_segments = [s for segs in self._segments.values() for s in segs]
        if self.wall_t0 is not None and self.wall_t1 is not None:
            t0, t1 = self.wall_t0, self.wall_t1
        elif all_segments:
            t0 = min(s.t0 for s in all_segments)
            t1 = max(s.t1 for s in all_segments)
        else:
            t0 = t1 = 0.0
        cores: Dict[int, List[Segment]] = {}
        for core in sorted(self._segments):
            recorded = sorted(self._segments[core], key=lambda s: (s.t0, s.t1))
            merged: List[Segment] = []
            cursor = t0
            for seg in recorded:
                if seg.t0 > cursor:
                    merged.append(Segment(core=core, kind="idle", t0=cursor, t1=seg.t0))
                merged.append(seg)
                cursor = max(cursor, seg.t1)
            if t1 > cursor:
                merged.append(Segment(core=core, kind="idle", t0=cursor, t1=t1))
            cores[core] = merged
        return CoreTimeline(cores=cores, wall_t0=t0, wall_t1=t1)


@dataclass
class CoreTimeline:
    """A finalized set of per-core timelines over one wall span.

    ``cores[c]`` is core ``c``'s complete, gapless, non-overlapping
    segment list covering ``[wall_t0, wall_t1]``.
    """

    cores: Dict[int, List[Segment]]
    wall_t0: float
    wall_t1: float

    @property
    def wall(self) -> float:
        return self.wall_t1 - self.wall_t0

    @property
    def n_cores(self) -> int:
        return len(self.cores)

    def seconds_by_kind(self, core: int) -> Dict[str, float]:
        """Total duration per segment kind for one core."""
        out = {k: 0.0 for k in SEGMENT_KINDS}
        for seg in self.cores[core]:
            out[seg.kind] += seg.duration
        return out

    def busy_per_core(self) -> np.ndarray:
        """Busy time per core, indexed by sorted core id."""
        return np.array(
            [self.seconds_by_kind(c)["busy"] for c in sorted(self.cores)],
            dtype=np.float64,
        )

    def utilization(self) -> Dict[int, float]:
        """Busy fraction of the wall span per core (0 when the span is 0)."""
        wall = self.wall
        if wall <= 0:
            return {c: 0.0 for c in self.cores}
        return {c: self.seconds_by_kind(c)["busy"] / wall for c in sorted(self.cores)}

    def measured_pg(self) -> float:
        """Potential gain from traced busy time: ``1 - mean(busy)/max(busy)``.

        The trace-side counterpart of
        :meth:`repro.runtime.simulator.SimulationResult.potential_gain` and
        the inspector-side PGP prediction — the trace-vs-model differential
        compares the three.
        """
        busy = self.busy_per_core()
        mx = float(busy.max()) if busy.size else 0.0
        if mx <= 0.0:
            return 0.0
        return 1.0 - float(busy.mean()) / mx

    def wait_attribution(self) -> List[Segment]:
        """All ``p2p_wait`` segments (each names its blocking dependence)."""
        return [s for segs in self.cores.values() for s in segs if s.kind == "p2p_wait"]

    def segments(self) -> List[Segment]:
        """All segments of all cores (per-core order preserved)."""
        return [s for c in sorted(self.cores) for s in self.cores[c]]

    # ------------------------------------------------------------------
    def check_invariants(self, *, tol: float = 1e-9) -> None:
        """Raise ``AssertionError`` unless the timeline is well-formed.

        Per core: segments are sorted and non-overlapping, lie inside the
        wall span, and their durations sum to the wall span (gapless cover).
        """
        wall = self.wall
        for core, segs in self.cores.items():
            covered = 0.0
            prev_end = self.wall_t0
            for seg in segs:
                assert seg.t1 >= seg.t0, f"core {core}: negative segment {seg}"
                assert seg.t0 >= prev_end - tol, f"core {core}: overlapping segments at {seg}"
                assert seg.t0 >= self.wall_t0 - tol and seg.t1 <= self.wall_t1 + tol, (
                    f"core {core}: segment outside wall span {seg}"
                )
                covered += seg.duration
                prev_end = seg.t1
            assert abs(covered - wall) <= tol * max(1.0, abs(wall)) + tol, (
                f"core {core}: busy+wait+idle covers {covered}, wall span is {wall}"
            )

    def as_dict(self) -> dict:
        return {
            "wall_t0": self.wall_t0,
            "wall_t1": self.wall_t1,
            "cores": {str(c): [s.as_dict() for s in segs] for c, segs in self.cores.items()},
        }
