"""Exact trace-based cache simulation — the edge model's differential oracle.

The production simulator scores locality with a vectorized edge rule
(:mod:`repro.runtime.simulator`).  This module runs the *slow, literal*
version instead: each kernel iteration's full cache-line trace
(:meth:`~repro.kernels.base.SparseKernel.memory_trace`) is pushed through
a per-core exact LRU cache in schedule order.  It is O(total accesses)
Python work — strictly a verification and analysis tool — and the tests
use it to bound the fast model: the two agree on the *ordering* of
schedules by locality even where their absolute hit counts differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..core.schedule import Schedule
from ..runtime.simulator import bind_dynamic_partitions
from .cache import LRUCache
from .machine import MachineConfig

__all__ = ["ExactCacheStats", "simulate_cache_exact"]


@dataclass(frozen=True)
class ExactCacheStats:
    """Hit/miss totals of an exact per-core LRU replay."""

    hits: int
    misses: int
    per_core_hits: Dict[int, int]
    per_core_misses: Dict[int, int]

    @property
    def total_accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.total_accesses if self.total_accesses else 0.0

    def avg_memory_access_latency(self, machine: MachineConfig) -> float:
        """The paper's locality metric under the exact replay."""
        if self.total_accesses == 0:
            return 0.0
        return (
            machine.hit_cycles * self.hits + machine.miss_cycles * self.misses
        ) / self.total_accesses


def simulate_cache_exact(
    schedule: Schedule,
    trace_ptr: np.ndarray,
    trace_lines: np.ndarray,
    machine: MachineConfig,
    cost: np.ndarray | None = None,
) -> ExactCacheStats:
    """Replay the full line trace through exact per-core LRU caches.

    Vertices run in schedule order on their assigned cores; each core owns
    an :class:`~repro.runtime.cache.LRUCache` of the machine's per-core
    capacity.  Cross-core coherence is modelled as in the fast path: a line
    resident in another core's cache does not help (private caches).
    """
    if cost is None:
        cost = np.ones(schedule.n, dtype=np.float64)
    schedule = bind_dynamic_partitions(schedule, cost)
    p = machine.n_cores
    caches: Dict[int, LRUCache] = {}
    per_hits: Dict[int, int] = {}
    per_miss: Dict[int, int] = {}
    # writes invalidate other cores' copies: track the last writer per line
    # via ownership — simplest faithful version: a line fetched by core c is
    # removed from every other cache (exclusive ownership on touch).
    owner: Dict[int, int] = {}
    ptr = schedule.part_ptr.tolist()
    order = schedule.order.tolist()
    for j, core in enumerate(schedule.part_core.tolist()):
        c = core % p
        cache = caches.setdefault(c, LRUCache(machine.cache_lines_per_core))
        per_hits.setdefault(c, 0)
        per_miss.setdefault(c, 0)
        for v in order[ptr[j] : ptr[j + 1]]:
            for line in trace_lines[trace_ptr[v] : trace_ptr[v + 1]].tolist():
                prev = owner.get(line)
                if prev is not None and prev != c:
                    # exclusive transfer: the previous owner loses the line
                    caches[prev]._lines.pop(line, None)
                owner[line] = c
                if cache.access(line):
                    per_hits[c] += 1
                else:
                    per_miss[c] += 1
    return ExactCacheStats(
        hits=sum(per_hits.values()),
        misses=sum(per_miss.values()),
        per_core_hits=per_hits,
        per_core_misses=per_miss,
    )
