"""Memory-footprint race detector for schedules.

Two iterations placed in the same coarsened wavefront but different
width-partitions may execute concurrently under either sync model.  If
their footprints overlap on any location and at least one of the two
accesses is a write, the schedule admits a data race — a wrong numerical
answer under load, with no error raised.

The detector is *static* (no execution) and *independent of the DAG*: it
consumes only the schedule coordinates and a :class:`~.footprint.Footprint`
derived directly from the matrix structure.  That independence is the
point — an inspector fed a mis-constructed DAG produces a schedule that
passes every edge-level check, because the edges themselves are wrong; the
footprints re-derive the ground truth the DAG was supposed to encode.

Algorithm: flatten all accesses to ``(location, level, partition,
is_write, iteration)`` tuples, sort by ``(location, level)`` — O(A log A)
for A total accesses — and flag every group that spans >= 2 partitions and
contains >= 1 write.  Exactly one sort, no pairwise enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from ..core.schedule import Schedule
from ..runtime.perf import StageTimer
from .footprint import Footprint

__all__ = ["RaceWitness", "RaceReport", "detect_races"]

#: ``Schedule.meta["stage_seconds"]`` key for race-detection time.
RACES_STAGE = "race_detect"


@dataclass(frozen=True)
class RaceWitness:
    """One conflicting pair: a write and a concurrent access to one location."""

    location: int
    level: int
    writer: int
    writer_partition: int
    other: int
    other_partition: int
    other_is_write: bool

    def describe(self) -> str:
        kind = "write/write" if self.other_is_write else "write/read"
        return (
            f"race ({kind}) at location {self.location}, wavefront {self.level}: "
            f"iteration {self.writer} (partition {self.writer_partition}) vs "
            f"iteration {self.other} (partition {self.other_partition})"
        )

    def as_dict(self) -> dict:
        return {
            "location": self.location,
            "level": self.level,
            "writer": self.writer,
            "writer_partition": self.writer_partition,
            "other": self.other,
            "other_partition": self.other_partition,
            "other_is_write": self.other_is_write,
        }


@dataclass
class RaceReport:
    """Outcome of :func:`detect_races`."""

    ok: bool
    n_accesses: int
    n_conflicting_groups: int
    witnesses: List[RaceWitness] = field(default_factory=list)
    seconds: float = 0.0

    def describe(self) -> str:
        if self.ok:
            return (
                f"race-free: {self.n_accesses} accesses checked "
                f"({self.seconds * 1e3:.2f} ms)"
            )
        lines = [f"RACES: {self.n_conflicting_groups} conflicting (location, wavefront) groups"]
        lines.extend(f"  {w.describe()}" for w in self.witnesses)
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "n_accesses": self.n_accesses,
            "n_conflicting_groups": self.n_conflicting_groups,
            "witnesses": [w.as_dict() for w in self.witnesses],
            "seconds": self.seconds,
        }


def _witness_from_group(
    loc: int,
    lvl: int,
    its: np.ndarray,
    pids: np.ndarray,
    isw: np.ndarray,
) -> RaceWitness:
    """Pick a (writer, cross-partition access) pair out of one flagged group."""
    writers = np.nonzero(isw)[0]
    # a writer whose partition differs from some other access in the group
    for w in writers.tolist():
        cross = np.nonzero(pids != pids[w])[0]
        if cross.shape[0]:
            # prefer a conflicting write over a read for the second endpoint
            cross_w = cross[isw[cross]]
            o = int(cross_w[0]) if cross_w.shape[0] else int(cross[0])
            return RaceWitness(
                location=loc,
                level=lvl,
                writer=int(its[w]),
                writer_partition=int(pids[w]),
                other=int(its[o]),
                other_partition=int(pids[o]),
                other_is_write=bool(isw[o]),
            )
    raise AssertionError("flagged group without a cross-partition writer pair")


def detect_races(
    schedule: Schedule,
    fp: Footprint,
    *,
    max_witnesses: int = 16,
    stamp_meta: bool = True,
) -> RaceReport:
    """Statically flag same-wavefront cross-partition footprint conflicts.

    With ``stamp_meta`` the detection wall-clock is accumulated into
    ``schedule.meta["stage_seconds"]["race_detect"]``.
    """
    if fp.n != schedule.n:
        raise ValueError(f"footprint covers {fp.n} iterations, schedule has {schedule.n}")
    timer = StageTimer()
    with timer.stage(RACES_STAGE):
        level = schedule.level_of()
        pid = schedule.partition_of()
        it = np.concatenate(
            [
                np.repeat(np.arange(fp.n, dtype=np.int64), np.diff(fp.read_ptr)),
                np.repeat(np.arange(fp.n, dtype=np.int64), np.diff(fp.write_ptr)),
            ]
        )
        loc = np.concatenate([fp.read_loc, fp.write_loc]).astype(np.int64)
        isw = np.concatenate(
            [
                np.zeros(fp.read_loc.shape[0], dtype=bool),
                np.ones(fp.write_loc.shape[0], dtype=bool),
            ]
        )
        lv = level[it].astype(np.int64)
        pd = pid[it].astype(np.int64)
        n_acc = int(loc.shape[0])
        witnesses: List[RaceWitness] = []
        flagged = np.empty(0, dtype=np.int64)
        if n_acc:
            witnesses, flagged = _find_conflicts(
                loc, lv, pd, it, isw, schedule.n_levels, max_witnesses
            )
    report = RaceReport(
        ok=flagged.shape[0] == 0,
        n_accesses=n_acc,
        n_conflicting_groups=int(flagged.shape[0]),
        witnesses=witnesses,
        seconds=timer.total,
    )
    if stamp_meta:
        stages = schedule.meta.setdefault("stage_seconds", {})
        stages[RACES_STAGE] = stages.get(RACES_STAGE, 0.0) + timer.total
    return report


def _find_conflicts(
    loc: np.ndarray,
    lv: np.ndarray,
    pd: np.ndarray,
    it: np.ndarray,
    isw: np.ndarray,
    n_levels: int,
    max_witnesses: int,
) -> tuple:
    """Sort-and-scan over the access table; returns (witnesses, flagged groups)."""
    n_acc = int(loc.shape[0])
    # group key: (location, level); sort secondary by partition so the
    # distinct-partition count per group is a neighbour comparison
    key = loc * np.int64(max(1, n_levels)) + lv
    order = np.lexsort((pd, key))
    key_s, pd_s, isw_s = key[order], pd[order], isw[order]
    new_group = np.empty(n_acc, dtype=bool)
    new_group[0] = True
    np.not_equal(key_s[1:], key_s[:-1], out=new_group[1:])
    starts = np.nonzero(new_group)[0]
    # per-group: any write, and >= 2 distinct partitions
    has_write = np.logical_or.reduceat(isw_s, starts)
    pd_change = np.empty(n_acc, dtype=bool)
    pd_change[0] = False
    np.not_equal(pd_s[1:], pd_s[:-1], out=pd_change[1:])
    pd_change &= ~new_group
    multi_pid = np.logical_or.reduceat(pd_change, starts)
    flagged = np.nonzero(has_write & multi_pid)[0]

    witnesses: List[RaceWitness] = []
    if flagged.shape[0]:
        it_s, lv_s, loc_s = it[order], lv[order], loc[order]
        ends = np.concatenate([starts[1:], [n_acc]])
        for gk in flagged[:max_witnesses].tolist():
            s, e = int(starts[gk]), int(ends[gk])
            witnesses.append(
                _witness_from_group(
                    int(loc_s[s]), int(lv_s[s]), it_s[s:e], pd_s[s:e], isw_s[s:e]
                )
            )
    return witnesses, flagged
