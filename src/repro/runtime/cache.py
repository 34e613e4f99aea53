"""Per-core exact LRU cache: the exact-cache oracle's cache.

The paper's locality metric is the *average memory access latency* measured
with PAPI counters (Section V-A, Figure 6).  :class:`LRUCache` models one
core's private cache of ``capacity`` 64-byte lines: every access in a kernel
iteration's line trace is a hit or a miss under exact LRU replacement.
:mod:`repro.runtime.exact` replays whole schedules through one per core; the
production simulator scores locality with the edge model of
:mod:`repro.kernels.memory` instead.
"""

from __future__ import annotations

from collections import OrderedDict
import numpy as np

__all__ = ["LRUCache"]


class LRUCache:
    """Exact LRU set of line ids with hit/miss counting."""

    __slots__ = ("capacity", "_lines", "hits", "misses")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lines: OrderedDict[int, None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def access(self, line: int) -> bool:
        """Touch one line; returns True on hit."""
        cache = self._lines
        if line in cache:
            cache.move_to_end(line)
            self.hits += 1
            return True
        cache[line] = None
        if len(cache) > self.capacity:
            cache.popitem(last=False)
        self.misses += 1
        return False

    def access_trace(self, lines: np.ndarray) -> np.ndarray:
        """Touch a whole trace; returns the per-access hit mask."""
        out = np.empty(lines.shape[0], dtype=bool)
        for k, line in enumerate(lines.tolist()):
            out[k] = self.access(line)
        return out

    def __len__(self) -> int:
        return len(self._lines)
