"""Tests for the structure-keyed schedule cache and its reuse ladder."""

import random

import numpy as np
import pytest

from repro.analysis.verifier import assert_schedule_safe
from repro.core import ScheduleCache, family_key, hdagg, schedule_key
from repro.core import incremental
from repro.core.schedule_cache import CacheStats
from repro.graph import DAG, dag_from_matrix_lower
from repro.kernels import KERNELS
from repro.resilience.faults import FaultPlan, FaultSpec, armed, corrupt_schedule
from repro.sparse import apply_ordering, banded_spd, lower_triangle, poisson2d
from repro.store import ScheduleStore


@pytest.fixture(scope="module")
def dag_and_cost():
    a, _ = apply_ordering(poisson2d(12, seed=3), "nd")
    g = dag_from_matrix_lower(lower_triangle(a))
    cost = np.ones(g.n)
    return g, cost


def test_hit_miss_counters(dag_and_cost):
    g, cost = dag_and_cost
    cache = ScheduleCache()
    key = schedule_key(g, kernel="sptrsv", p=4, epsilon=0.1)
    assert cache.get(key) is None
    assert cache.stats == CacheStats(hits=0, misses=1, entries=0)
    schedule = hdagg(g, cost, 4, 0.1)
    cache.put(key, schedule)
    assert cache.get(key) is schedule
    assert cache.stats.hits == 1 and cache.stats.entries == 1
    assert key in cache and len(cache) == 1


def test_key_sensitive_to_parameters(dag_and_cost):
    g, _ = dag_and_cost
    base = schedule_key(g, kernel="sptrsv", p=4, epsilon=0.1)
    assert schedule_key(g, kernel="sptrsv", p=4, epsilon=0.2) != base
    assert schedule_key(g, kernel="sptrsv", p=8, epsilon=0.1) != base
    assert schedule_key(g, kernel="spic0", p=4, epsilon=0.1) != base
    assert schedule_key(g, kernel="sptrsv", algorithm="lbc", p=4, epsilon=0.1) != base
    assert (
        schedule_key(g, kernel="sptrsv", p=4, epsilon=0.1, options={"cap": 0.5}) != base
    )
    # same inputs -> same key (deterministic digest)
    assert schedule_key(g, kernel="sptrsv", p=4, epsilon=0.1) == base


def test_key_sensitive_to_one_edge(dag_and_cost):
    g, _ = dag_and_cost
    src, dst = g.edge_list()
    assert g.n_edges > 0
    g_minus = DAG.from_edges(g.n, src[:-1], dst[:-1])  # drop one edge
    k1 = schedule_key(g, kernel="sptrsv", p=4, epsilon=0.1)
    k2 = schedule_key(g_minus, kernel="sptrsv", p=4, epsilon=0.1)
    assert k1 != k2


def test_key_sensitive_to_cost_when_given(dag_and_cost):
    g, cost = dag_and_cost
    k1 = schedule_key(g, kernel="sptrsv", p=4, cost=cost)
    k2 = schedule_key(g, kernel="sptrsv", p=4, cost=cost * 2.0)
    assert k1 != k2


def test_cached_schedule_passes_dependence_validation(dag_and_cost):
    g, cost = dag_and_cost
    cache = ScheduleCache()
    key = schedule_key(g, kernel="sptrsv", p=4, epsilon=0.1)
    cache.put(key, hdagg(g, cost, 4, 0.1))
    cached = cache.get(key)
    cached.validate(g)  # structural + dependence safety must hold


def test_lru_eviction():
    cache = ScheduleCache(max_entries=2)
    a = DAG.from_edges(3, [0, 1], [1, 2])
    b = DAG.from_edges(3, [0], [2])
    c = DAG.from_edges(3, [1], [2])
    cost = np.ones(3)
    keys = [schedule_key(g, p=2) for g in (a, b, c)]
    for g, k in zip((a, b, c), keys):
        cache.put(k, hdagg(g, cost, 2))
    assert len(cache) == 2
    assert keys[0] not in cache  # oldest evicted
    assert keys[1] in cache and keys[2] in cache
    cache.get(keys[1])  # refresh 1 -> 2 becomes LRU
    cache.put(keys[0], hdagg(a, cost, 2))
    assert keys[2] not in cache and keys[1] in cache


def test_invalid_max_entries():
    with pytest.raises(ValueError):
        ScheduleCache(max_entries=0)


def test_clear_resets():
    cache = ScheduleCache()
    g = DAG.from_edges(2, [0], [1])
    k = schedule_key(g, p=1)
    cache.put(k, hdagg(g, np.ones(2), 1))
    cache.get(k)
    cache.get("missing")
    cache.clear()
    assert len(cache) == 0
    assert cache.stats == CacheStats(hits=0, misses=0, entries=0)


# ----------------------------------------------------------------------
# the reuse ladder: memory -> store -> repair -> inspect
# ----------------------------------------------------------------------
def _problem(build, algorithm="hdagg"):
    kernel = KERNELS["sptrsv"]
    low = lower_triangle(build())
    g, cost = kernel.dag(low), kernel.cost(low)
    key = schedule_key(g, kernel="sptrsv", algorithm=algorithm, p=4)
    family = family_key(kernel="sptrsv", algorithm=algorithm, p=4, label="m")
    return key, family, g, cost


@pytest.fixture(scope="module")
def problem_a():
    return _problem(lambda: poisson2d(8, seed=0))


@pytest.fixture(scope="module")
def problem_b():
    return _problem(lambda: banded_spd(120, 5, seed=3))


def _acquire(cache, problem, **kwargs):
    key, family, g, cost = problem
    return cache.acquire(key, family, g, cost, p=4, **kwargs)


class TestLadder:
    def test_miss_then_memory(self, problem_a):
        cache = ScheduleCache()
        first, source = _acquire(cache, problem_a, validate=True)
        assert source == "full"
        assert_schedule_safe(first, problem_a[2])
        second, source = _acquire(cache, problem_a, validate=True)
        assert source == "hit" and second is first
        assert cache.stats == CacheStats(hits=1, misses=1, entries=1)

    def test_distinct_requests_get_distinct_keys(self, problem_a, problem_b):
        assert problem_a[0] != problem_b[0]
        cache = ScheduleCache()
        _acquire(cache, problem_a)
        schedule, source = _acquire(cache, problem_b)
        assert source == "full"
        assert_schedule_safe(schedule, problem_b[2])
        assert len(cache) == 2

    def test_get_reads_memory_only(self, tmp_path, problem_a):
        store = ScheduleStore(tmp_path / "store", durable=False)
        _acquire(ScheduleCache(store=store), problem_a)
        assert problem_a[0] in store
        assert ScheduleCache(store=store).get(problem_a[0]) is None

    def test_store_hit_survives_process_restart(self, tmp_path, problem_a):
        root = tmp_path / "store"
        _acquire(ScheduleCache(store=ScheduleStore(root)), problem_a)
        # "new process": fresh cache, fresh store handle, same disk
        cache = ScheduleCache(store=ScheduleStore(root))
        schedule, source = _acquire(cache, problem_a)
        assert source == "store"
        assert_schedule_safe(schedule, problem_a[2])
        assert _acquire(cache, problem_a)[1] == "hit"  # promoted into memory

    def test_corrupted_memory_hit_heals(self, problem_a):
        cache = ScheduleCache()
        _acquire(cache, problem_a)
        plan = FaultPlan([FaultSpec("schedule_cache.get", "corrupt", at=0)])
        with armed(plan):
            schedule, source = _acquire(cache, problem_a, validate=True)
        assert plan.fired
        # the corrupt hit was refuted, invalidated, and re-inspected
        assert source == "full"
        assert_schedule_safe(schedule, problem_a[2])
        assert _acquire(cache, problem_a)[1] == "hit"  # slot healed

    def test_unsafe_store_record_is_quarantined_not_served(
        self, tmp_path, problem_a, problem_b
    ):
        store = ScheduleStore(tmp_path / "store", durable=False)
        foreign, _ = _acquire(ScheduleCache(), problem_b)
        store.put(problem_a[0], foreign)  # decodes fine, wrong DAG
        schedule, source = _acquire(ScheduleCache(store=store), problem_a)
        assert source == "full"
        assert_schedule_safe(schedule, problem_a[2])
        assert [e.reason for e in store.events] == [
            "failed assert_schedule_safe for the requested DAG"
        ]

    def test_store_read_error_is_a_miss(self, problem_a):
        class Down:
            def get(self, key):
                raise OSError("store unreachable")

            def put(self, key, schedule):
                raise OSError("store unreachable")

        schedule, source = _acquire(ScheduleCache(store=Down()), problem_a)  # no raise
        assert source == "full"
        assert_schedule_safe(schedule, problem_a[2])

    def test_store_write_error_never_fails_the_request(self, problem_a):
        class ReadOnly:
            def get(self, key):
                return None

            def put(self, key, schedule):
                raise OSError("disk on fire")

        cache = ScheduleCache(store=ReadOnly())
        _, source = _acquire(cache, problem_a)
        assert source == "full"
        assert problem_a[0] in cache  # the memory tier still serves it

    def test_degraded_schedule_is_never_cached_or_persisted(self, tmp_path, problem_a):
        store = ScheduleStore(tmp_path / "store", durable=False)
        cache = ScheduleCache(store=store)
        plan = FaultPlan([FaultSpec("inspector", "raise", times=-1, match="hdagg")])
        with armed(plan):
            schedule, source = _acquire(cache, problem_a, validate=True)
        assert source == "full" and schedule.algorithm == "wavefront"
        assert problem_a[0] not in cache
        assert problem_a[0] not in store
        assert cache.artifacts_for(problem_a[1]) is None

    def test_budget_overrun_degrades(self, problem_a):
        cache = ScheduleCache()
        plan = FaultPlan(
            [FaultSpec("inspector", "stall", times=-1, match="hdagg", duration=1.0)]
        )
        with armed(plan):
            schedule, source = _acquire(cache, problem_a, budget=0.1)
        assert source == "full" and schedule.algorithm == "wavefront"
        assert problem_a[0] not in cache


def _drift(problem, rows=2):
    """The same matrix with a few rows' dependences dropped."""
    key, family, g, cost = problem
    rng = np.random.default_rng(0)
    keep = np.ones(g.indices.size, dtype=bool)
    for r in rng.choice(g.n, size=rows, replace=False):
        lo, hi = int(g.indptr[r]), int(g.indptr[r + 1])
        if hi > lo:
            keep[lo] = False
    src, dst = g.edge_list()
    g2 = DAG.from_edges(g.n, src[keep], dst[keep])
    return schedule_key(g2, kernel="sptrsv", p=4), family, g2, cost


class TestRepairRung:
    @pytest.fixture(scope="class")
    def mesh(self):
        return _problem(lambda: poisson2d(24, seed=1))

    def test_near_miss_is_repaired_bit_identically(self, mesh):
        cache = ScheduleCache()
        _acquire(cache, mesh)
        drifted = _drift(mesh)
        schedule, source = _acquire(cache, drifted, validate=True)
        assert source == "repaired" and cache.repairs == 1
        fresh = hdagg(drifted[2], drifted[3], 4)
        assert schedule.execution_order().tolist() == fresh.execution_order().tolist()
        assert "verify" in schedule.meta["stage_seconds"]

    def test_refuted_repair_falls_through_to_inspection(self, mesh, monkeypatch):
        real = incremental.repair_schedule

        def corrupting(old, g, cost):
            result = real(old, g, cost)
            result.schedule = corrupt_schedule(result.schedule, random.Random(0))
            return result

        monkeypatch.setattr(incremental, "repair_schedule", corrupting)
        cache = ScheduleCache()
        _acquire(cache, mesh)
        drifted = _drift(mesh)
        schedule, source = _acquire(cache, drifted, validate=True)
        assert source == "full"
        assert (cache.repairs, cache.repair_fulls) == (0, 1)
        assert_schedule_safe(schedule, drifted[2])

    def test_failing_repair_falls_through_to_inspection(self, mesh, monkeypatch):
        def exploding(old, g, cost):
            raise RuntimeError("repair exploded")

        monkeypatch.setattr(incremental, "repair_schedule", exploding)
        cache = ScheduleCache()
        _acquire(cache, mesh)
        schedule, source = _acquire(cache, _drift(mesh))
        assert source == "full" and cache.repair_fulls == 1

    def test_only_repairable_groups_seed_a_family(self, mesh):
        from repro.passes import get_pass_group

        assert incremental.repairable(get_pass_group("hdagg"))
        assert not any(
            incremental.repairable(get_pass_group(a))
            for a in ("wavefront", "spmp", "lbc", "dagp", "mkl", "coarsenk", "serial")
        )
        cache = ScheduleCache()
        key, _, g, cost = mesh
        family = family_key(kernel="sptrsv", algorithm="wavefront", p=4, label="m")
        cache.acquire(key, family, g, cost, p=4, algorithm="wavefront")
        assert cache.artifacts_for(family) is None
