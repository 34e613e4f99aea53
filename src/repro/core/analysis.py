"""Human-readable schedule analysis: per-level stats.

Inspectors are opaque without tooling; this module renders what a schedule
actually looks like — the per-coarsened-wavefront width, load spread, and
PGP.  Per-core utilisation of a traced run is
:func:`repro.observability.reports.utilization_report`.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .pgp import pgp
from .schedule import Schedule

__all__ = ["level_table", "schedule_report"]


def level_table(schedule: Schedule, cost: np.ndarray) -> List[dict]:
    """Per-level statistics: width, vertex count, load spread, PGP."""
    cost = np.asarray(cost, dtype=np.float64)
    rows = []
    lp, pp = schedule.level_ptr, schedule.part_ptr
    for k, loads in enumerate(schedule.level_loads(cost)):
        rows.append(
            {
                "level": k,
                "width": int(lp[k + 1] - lp[k]),
                "vertices": int(pp[lp[k + 1]] - pp[lp[k]]),
                "max_load": float(loads.max()),
                "mean_load": float(loads.mean()),
                "pgp": pgp(loads),
            }
        )
    return rows


def schedule_report(schedule: Schedule, cost: np.ndarray, *, max_rows: int = 40) -> str:
    """Multi-line description of a schedule for logs and examples."""
    cost = np.asarray(cost, dtype=np.float64)
    rows = level_table(schedule, cost)
    lines = [
        f"schedule {schedule.algorithm}: n={schedule.n}, "
        f"{schedule.n_levels} coarsened wavefronts, "
        f"{schedule.n_partitions} width-partitions, sync={schedule.sync}"
        f"{', fine-grained' if schedule.fine_grained else ''}",
        f"{'level':>5}  {'width':>5}  {'verts':>6}  {'max load':>10}  {'PGP':>5}",
    ]
    shown = rows if len(rows) <= max_rows else rows[: max_rows - 1]
    for r in shown:
        lines.append(
            f"{r['level']:>5}  {r['width']:>5}  {r['vertices']:>6}  "
            f"{r['max_load']:>10.1f}  {r['pgp']:>5.2f}"
        )
    if len(rows) > max_rows:
        lines.append(f"  ... {len(rows) - max_rows + 1} more levels")
    return "\n".join(lines)
