"""Load-balance metrics: measured PG, PGP accuracy, imbalance ratio.

Three related quantities from the paper:

* **PGP** (Equation 1, inspector-side): :mod:`repro.core.pgp`.
* **PG** (measured, Section IV-D): the same formula over per-core *busy
  cycles* from the execution simulator — the paper uses PAPI/VTune cycle
  counters here.
* **load imbalance ratio** (Figure 7): the fraction of a schedule's
  (coarsened) wavefronts whose number of independent workloads is smaller
  than the core count ``p`` — "a wavefront is imbalanced if the number of
  independent workloads in the wavefront is less than the number of
  cores".
"""

from __future__ import annotations

import numpy as np

from ..core.schedule import Schedule
from ..runtime.simulator import SimulationResult

__all__ = ["measured_pg", "imbalance_ratio", "level_widths"]


def measured_pg(result: SimulationResult) -> float:
    """Measured potential gain: ``1 - mean(busy)/max(busy)`` over cores."""
    return result.potential_gain


def level_widths(schedule: Schedule) -> np.ndarray:
    """Number of independent workloads (width-partitions) per level."""
    return np.diff(schedule.level_ptr).astype(np.int64, copy=False)


def imbalance_ratio(schedule: Schedule, p: int | None = None) -> float:
    """Fraction of levels with fewer than ``p`` independent workloads.

    ``p`` defaults to the schedule's own core count.  Empty schedules have
    ratio 0 by convention.
    """
    if p is None:
        p = schedule.n_cores
    widths = level_widths(schedule)
    if widths.size == 0:
        return 0.0
    return float(np.count_nonzero(widths < p)) / widths.size
