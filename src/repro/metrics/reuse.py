"""Reuse-distance profiling: *why* a schedule has the locality it has.

The simulator reports hit/miss totals; this profiler explains them.  For
every dependence edge it computes, under a given (bound) schedule, the
consumer's distance from the data source — same-core accesses measured in
intervening line accesses, cross-core accesses flagged as coherence
traffic — and folds them into a histogram.  Comparing two schedulers'
histograms shows exactly where HDagg's merged coarsened wavefronts turn
long-distance or cross-core reuse into short-distance reuse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..core.schedule import Schedule
from ..graph.dag import DAG
from ..kernels.memory import MemoryModel
from ..runtime.machine import MachineConfig
from ..runtime.simulator import bind_dynamic_partitions

__all__ = ["ReuseProfile", "reuse_profile"]

#: Histogram bucket upper bounds (in line accesses); the last is open.
_BUCKETS = (16, 64, 256, 1024, 4096, 16384)


@dataclass(frozen=True)
class ReuseProfile:
    """Distribution of dependence reuse for one schedule."""

    same_core_hist: Dict[str, float]  # bucket label -> line volume
    cross_core_lines: float
    total_lines: float

    @property
    def cross_core_fraction(self) -> float:
        """Share of dependence traffic that crosses cores (coherence)."""
        if self.total_lines <= 0:
            return 0.0
        return self.cross_core_lines / self.total_lines

    def within(self, capacity: int) -> float:
        """Line volume with same-core reuse distance <= capacity."""
        total = 0.0
        for label, vol in self.same_core_hist.items():
            bound = float("inf") if label.endswith("+") else int(label.split("-")[1])
            if bound <= capacity:
                total += vol
        return total


def _bucket_label(k: int) -> str:
    lo = 0 if k == 0 else _BUCKETS[k - 1] + 1
    if k == len(_BUCKETS):
        return f"{lo}+"
    return f"{lo}-{_BUCKETS[k]}"


def reuse_profile(
    schedule: Schedule,
    g: DAG,
    memory: MemoryModel,
    machine: MachineConfig,
    cost: np.ndarray | None = None,
) -> ReuseProfile:
    """Profile dependence reuse distances under ``schedule`` on ``machine``.

    Uses the simulator's consumer-chaining rule: an edge's distance is
    measured to the producer or to the latest earlier same-core consumer of
    the same data, whichever is nearer — matching what the cache actually
    sees.
    """
    memory.validate(g)
    if cost is None:
        cost = np.ones(g.n, dtype=np.float64)
    schedule = bind_dynamic_partitions(schedule, cost)
    p = machine.n_cores
    core = schedule.core_assignment() % p

    src, dst = g.edge_list()
    acc = memory.stream_lines.astype(np.float64).copy()
    if src.size:
        np.add.at(acc, dst, memory.edge_lines)
    position = np.zeros(g.n, dtype=np.float64)
    for c in np.unique(core):
        verts = schedule.order[core[schedule.order] == c]
        position[verts] = np.cumsum(acc[verts])

    hist = {_bucket_label(k): 0.0 for k in range(len(_BUCKETS) + 1)}
    cross = 0.0
    total = float(memory.edge_lines.sum()) if src.size else 0.0
    if src.size:
        order = np.lexsort((position[dst], core[dst], src))
        s_o, d_o = src[order], dst[order]
        w_o = memory.edge_lines[order]
        first = np.ones(order.shape[0], dtype=bool)
        first[1:] = (s_o[1:] != s_o[:-1]) | (core[d_o[1:]] != core[d_o[:-1]])
        prev_pos = np.empty(order.shape[0], dtype=np.float64)
        prev_pos[0] = 0.0
        prev_pos[1:] = position[d_o[:-1]]
        same_core_producer = core[s_o] == core[d_o]
        dist = np.where(
            first,
            np.where(same_core_producer, position[d_o] - position[s_o], np.inf),
            position[d_o] - prev_pos,
        )
        cross = float(w_o[np.isinf(dist)].sum())
        finite = ~np.isinf(dist)
        if finite.any():
            idx = np.searchsorted(np.array(_BUCKETS, dtype=np.float64), dist[finite])
            for k in range(len(_BUCKETS) + 1):
                hist[_bucket_label(k)] = float(w_o[finite][idx == k].sum())
    return ReuseProfile(same_core_hist=hist, cross_core_lines=cross, total_lines=total)
