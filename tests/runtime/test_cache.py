"""Tests for the exact LRU cache."""

import numpy as np
import pytest

from repro.runtime import LRUCache


class TestLRUCache:
    def test_cold_misses(self):
        c = LRUCache(4)
        assert not c.access(1)
        assert not c.access(2)
        assert c.misses == 2 and c.hits == 0

    def test_hit_on_reuse(self):
        c = LRUCache(4)
        c.access(1)
        assert c.access(1)
        assert c.hits == 1

    def test_eviction_lru_order(self):
        c = LRUCache(2)
        c.access(1)
        c.access(2)
        c.access(3)  # evicts 1
        assert not c.access(1)
        assert len(c) == 2

    def test_touch_refreshes(self):
        c = LRUCache(2)
        c.access(1)
        c.access(2)
        c.access(1)  # 2 becomes LRU
        c.access(3)  # evicts 2
        assert c.access(1)
        assert not c.access(2)

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_access_trace(self):
        c = LRUCache(8)
        mask = c.access_trace(np.array([1, 2, 1, 3, 2]))
        assert mask.tolist() == [False, False, True, False, True]


def lru_reference(capacity, trace):
    """Oracle: a most-recent-last list, hit iff the line is resident."""
    resident, hits = [], []
    for line in trace:
        hit = line in resident
        if hit:
            resident.remove(line)
        resident.append(line)
        del resident[:-capacity]
        hits.append(hit)
    return hits, resident


class TestAgainstReference:
    @pytest.mark.parametrize("capacity", [1, 2, 3, 8, 64])
    def test_matches_list_lru(self, capacity):
        trace = np.random.default_rng(capacity).integers(0, 24, size=600)
        want, resident = lru_reference(capacity, trace.tolist())
        c = LRUCache(capacity)
        assert c.access_trace(trace).tolist() == want
        assert (c.hits, c.misses) == (sum(want), len(want) - sum(want))
        assert len(c) == len(resident)

    def test_capacity_one_hits_only_on_immediate_repeat(self):
        c = LRUCache(1)
        mask = c.access_trace(np.array([5, 5, 6, 5, 5, 5]))
        assert mask.tolist() == [False, True, False, False, True, True]

    def test_large_capacity_misses_only_cold(self):
        trace = np.random.default_rng(3).integers(0, 50, size=400)
        c = LRUCache(64)
        c.access_trace(trace)
        assert c.misses == np.unique(trace).size

    def test_trace_continues_from_single_accesses(self):
        c = LRUCache(2)
        c.access(1)
        c.access(2)
        assert c.access_trace(np.array([2, 1, 3, 2])).tolist() == [True, True, False, False]
        assert (c.hits, c.misses) == (2, 4)

    def test_empty_trace(self):
        c = LRUCache(4)
        mask = c.access_trace(np.array([], dtype=np.int64))
        assert mask.dtype == bool and mask.shape == (0,)
        assert (c.hits, c.misses, len(c)) == (0, 0, 0)
