"""Derived reports over traces: utilization, sync cost, trace-vs-model.

These turn a :class:`~repro.observability.timeline.CoreTimeline` (wall
clock from the threaded executor, or model cycles from the simulator) into
the paper-style summaries:

* **per-core utilization** — busy / barrier-wait / p2p-wait / idle share
  per core (the per-core timeline view of Figures 7-9);
* **sync-cost breakdown** — total synchronisation time split by mechanism,
  with the most expensive point-to-point dependences attributed;
* **imbalance comparison** — potential gain measured from traced busy time
  against the schedule-side prediction
  (:func:`repro.core.pgp.accumulated_pgp` over the inspector's bins) and
  the simulator's measured PG, i.e. the trace-vs-model differential.
"""

from __future__ import annotations

from collections import Counter as _TallyCounter
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from .timeline import CoreTimeline

if TYPE_CHECKING:  # pragma: no cover
    from ..core.schedule import Schedule

# ..core and ..suite are imported lazily inside the functions below:
# instrumented modules (runtime, core, schedulers) import
# repro.observability.state, so this package must not import them back
# at module scope.

__all__ = [
    "utilization_rows",
    "utilization_report",
    "sync_breakdown",
    "sync_report",
    "imbalance_comparison",
    "imbalance_report",
]


def utilization_rows(timeline: CoreTimeline) -> List[list]:
    """Per-core rows: core, busy, barrier wait, p2p wait, idle, busy %."""
    rows: List[list] = []
    wall = timeline.wall
    for core in sorted(timeline.cores):
        by_kind = timeline.seconds_by_kind(core)
        rows.append(
            [
                core,
                by_kind["busy"],
                by_kind["barrier_wait"],
                by_kind["p2p_wait"],
                by_kind["idle"],
                100.0 * by_kind["busy"] / wall if wall > 0 else 0.0,
            ]
        )
    return rows


def utilization_report(timeline: CoreTimeline, *, unit: str = "s") -> str:
    from ..suite.reporting import format_table

    headers = ["core", f"busy ({unit})", f"barrier ({unit})", f"p2p ({unit})",
               f"idle ({unit})", "busy %"]
    return format_table(headers, utilization_rows(timeline),
                        title="Per-core utilization", digits=4)


def sync_breakdown(timeline: CoreTimeline, *, top: int = 5) -> dict:
    """Synchronisation cost split by mechanism, with wait attribution.

    ``top_dependences`` ranks the vertices most waited *for* across all
    ``p2p_wait`` segments — the schedule's serialisation hot spots.
    """
    barrier = 0.0
    p2p = 0.0
    idle = 0.0
    busy = 0.0
    waited_on: Dict[int, float] = {}
    tally = _TallyCounter()
    for seg in (s for segs in timeline.cores.values() for s in segs):
        if seg.kind == "barrier_wait":
            barrier += seg.duration
        elif seg.kind == "p2p_wait":
            p2p += seg.duration
            if seg.dependence >= 0:
                waited_on[seg.dependence] = waited_on.get(seg.dependence, 0.0) + seg.duration
                tally[seg.dependence] += 1
        elif seg.kind == "idle":
            idle += seg.duration
        else:
            busy += seg.duration
    ranked = sorted(waited_on.items(), key=lambda kv: -kv[1])[:top]
    return {
        "busy": busy,
        "barrier_wait": barrier,
        "p2p_wait": p2p,
        "idle": idle,
        "sync_total": barrier + p2p,
        "top_dependences": [
            {"vertex": int(v), "waited": w, "n_waits": int(tally[v])} for v, w in ranked
        ],
    }


def sync_report(timeline: CoreTimeline, *, unit: str = "s") -> str:
    b = sync_breakdown(timeline)
    lines = [
        "Synchronisation cost breakdown",
        "==============================",
        f"busy         {b['busy']:.6g} {unit}",
        f"barrier wait {b['barrier_wait']:.6g} {unit}",
        f"p2p wait     {b['p2p_wait']:.6g} {unit}",
        f"idle         {b['idle']:.6g} {unit}",
        f"sync total   {b['sync_total']:.6g} {unit}",
    ]
    if b["top_dependences"]:
        lines.append("most-waited-on dependences:")
        for d in b["top_dependences"]:
            lines.append(
                f"  vertex {d['vertex']}: {d['waited']:.6g} {unit} over {d['n_waits']} waits"
            )
    return "\n".join(lines)


def imbalance_comparison(
    timeline: CoreTimeline,
    schedule: Schedule,
    cost: np.ndarray,
    *,
    simulated_pg: Optional[float] = None,
) -> dict:
    """Trace-vs-model load-balance differential.

    * ``traced_pg`` — PG from the timeline's per-core busy time;
    * ``predicted_pgp`` — the inspector-side prediction
      (:func:`~repro.core.pgp.accumulated_pgp` over the schedule's bins
      with the kernel cost model);
    * ``simulated_pg`` — the simulator's measured PG when provided.

    Returns the three plus their pairwise absolute differences; the
    cross-check tests assert the trace agrees with the model within
    tolerance.
    """
    from ..core.pgp import accumulated_pgp

    traced = timeline.measured_pg()
    predicted = accumulated_pgp(schedule, np.asarray(cost, dtype=np.float64))
    out = {
        "traced_pg": traced,
        "predicted_pgp": predicted,
        "traced_vs_predicted": abs(traced - predicted),
    }
    if simulated_pg is not None:
        out["simulated_pg"] = simulated_pg
        out["traced_vs_simulated"] = abs(traced - simulated_pg)
    return out


def imbalance_report(
    timeline: CoreTimeline,
    schedule: Schedule,
    cost: np.ndarray,
    *,
    simulated_pg: Optional[float] = None,
) -> str:
    from ..suite.reporting import format_table

    c = imbalance_comparison(timeline, schedule, cost, simulated_pg=simulated_pg)
    rows = [["traced PG (timeline busy)", c["traced_pg"]],
            ["predicted PGP (inspector)", c["predicted_pgp"]],
            ["|traced - predicted|", c["traced_vs_predicted"]]]
    if simulated_pg is not None:
        rows.append(["simulated PG", c["simulated_pg"]])
        rows.append(["|traced - simulated|", c["traced_vs_simulated"]])
    return format_table(["quantity", "value"], rows,
                        title="Load imbalance: trace vs model", digits=4)
