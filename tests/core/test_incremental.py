"""Incremental re-inspection: repaired schedules are bit-identical to full.

The hypothesis suite drives :func:`repair_schedule` with random pattern
deltas — single-row column changes, multi-row changes (optionally with a
cost perturbation), and row removals — and asserts the strict contract:
whatever path the repair takes (``repaired`` or guard-forced ``full``),
its schedule equals a from-scratch inspection of the new pattern down to
every vertex array, cut position, and accumulated-PGP float.
"""

import time

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.analysis import assert_schedule_safe
from repro.core.incremental import (
    IncrementalScheduleCache,
    PatternDelta,
    changed_rows,
    diff_dag,
    family_key,
    inspect_with_artifacts,
    repair_schedule,
)
from repro.core.schedule_cache import schedule_key
from repro.graph import DAG, dag_from_matrix_lower
from repro.sparse import poisson2d

#: schedule meta keys that must agree exactly between repair and full
#: (stage_seconds is wall-clock and legitimately differs)
_META_KEYS = (
    "n_groups",
    "n_edges_original",
    "n_edges_reduced",
    "n_coarse_vertices",
    "n_coarse_wavefronts",
    "n_wavefronts",
    "accumulated_pgp",
    "epsilon",
    "backend",
)


def assert_same_schedule(a, b):
    assert a.n == b.n
    assert a.fine_grained == b.fine_grained
    assert a.sync == b.sync
    assert a.n_cores == b.n_cores
    assert len(a.levels) == len(b.levels)
    for la, lb in zip(a.levels, b.levels):
        assert len(la) == len(lb)
        for pa, pb in zip(la, lb):
            assert pa.core == pb.core
            assert np.array_equal(pa.vertices, pb.vertices)
    for key in _META_KEYS:
        assert a.meta.get(key) == b.meta.get(key), key
    assert list(a.meta["cut_positions"]) == list(b.meta["cut_positions"])


def assert_same_lbp(a, b):
    assert a.fine_grained == b.fine_grained
    assert a.accumulated_pgp == b.accumulated_pgp
    assert len(a.coarsened) == len(b.coarsened)
    for ca, cb in zip(a.coarsened, b.coarsened):
        assert (ca.wave_lo, ca.wave_hi) == (cb.wave_lo, cb.wave_hi)
        assert len(ca.components) == len(cb.components)
        for xa, xb in zip(ca.components, cb.components):
            assert np.array_equal(xa, xb)
        assert np.array_equal(ca.packing.loads, cb.packing.loads)
    da, db = a.decisions or [], b.decisions or []
    assert [(d.wave, d.pgp, d.merged) for d in da] == [
        (d.wave, d.pgp, d.merged) for d in db
    ]


def _random_dag(rng, n, m):
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    keep = src < dst
    return DAG.from_edges(n, src[keep], dst[keep])


def _rewrite_rows(g, rows, rng):
    """New DAG equal to ``g`` except the given rows' out-lists are random."""
    esrc, edst = g.edge_list()
    mask = ~np.isin(esrc, rows)
    srcs = [esrc[mask]]
    dsts = [edst[mask]]
    for r in rows:
        hi = g.n - int(r) - 1
        if hi <= 0:
            continue
        cnt = int(rng.integers(0, min(hi, 6) + 1))
        if cnt:
            targets = rng.choice(np.arange(r + 1, g.n), size=cnt, replace=False)
            srcs.append(np.full(cnt, r, dtype=targets.dtype))
            dsts.append(targets)
    return DAG.from_edges(g.n, np.concatenate(srcs), np.concatenate(dsts))


@st.composite
def delta_cases(draw):
    """(g_old, cost_old, g_new, cost_new, delta) for one repair problem."""
    n = draw(st.integers(4, 28))
    m = draw(st.integers(0, 90))
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["single", "multi", "remove"]))
    perturb_cost = draw(st.booleans())
    rng = np.random.default_rng(seed)
    g_old = _random_dag(rng, n, m)
    cost_old = rng.uniform(0.5, 2.0, size=n)
    if kind == "remove":
        k = int(rng.integers(1, min(3, n - 1) + 1))
        removed = rng.choice(n, size=k, replace=False)
        row_map = np.full(n, -1, dtype=np.int64)
        kept = np.setdiff1d(np.arange(n), removed)
        row_map[kept] = np.arange(kept.size)
        esrc, edst = g_old.edge_list()
        emask = (row_map[esrc] >= 0) & (row_map[edst] >= 0)
        g_new = DAG.from_edges(kept.size, row_map[esrc[emask]], row_map[edst[emask]])
        cost_new = cost_old[kept]
        delta = PatternDelta(n, kept.size, row_map)
    else:
        k = 1 if kind == "single" else int(rng.integers(2, 5))
        rows = rng.choice(n, size=min(k, n), replace=False)
        g_new = _rewrite_rows(g_old, rows, rng)
        cost_new = cost_old
        delta = diff_dag(g_old, g_new)
    if perturb_cost:
        cost_new = np.array(cost_new, copy=True)
        cost_new[int(rng.integers(0, cost_new.size))] += 1.0
    return g_old, cost_old, g_new, cost_new, delta


@given(delta_cases(), st.integers(1, 6), st.sampled_from([None, 0.05, 0.5]))
@settings(max_examples=60, deadline=None)
def test_repair_equals_full_reinspection(case, p, epsilon):
    g_old, cost_old, g_new, cost_new, delta = case
    kwargs = {} if epsilon is None else {"epsilon": epsilon}
    old = inspect_with_artifacts(g_old, cost_old, p, **kwargs)
    res = repair_schedule(old, g_new, cost_new, delta)
    full = inspect_with_artifacts(g_new, cost_new, p, **kwargs)
    event(f"mode={res.mode}")
    assert res.mode in ("repaired", "full")
    assert_same_schedule(res.schedule, full.schedule)
    if res.mode == "repaired":
        assert_same_lbp(res.artifacts.lbp, full.lbp)
        assert np.array_equal(res.artifacts.group_cost, full.group_cost)
        if not res.schedule.fine_grained:
            assert_schedule_safe(res.schedule, g_new)


@given(delta_cases(), st.integers(1, 6))
@settings(max_examples=30, deadline=None)
def test_repaired_artifacts_seed_the_next_repair(case, p):
    # a repair's output artifacts must be as good an ancestor as a full
    # inspection's: chain two deltas and compare against scratch
    g_old, cost_old, g_new, cost_new, delta = case
    old = inspect_with_artifacts(g_old, cost_old, p)
    first = repair_schedule(old, g_new, cost_new, delta)
    rng = np.random.default_rng(7)
    g_third = _rewrite_rows(g_new, rng.choice(g_new.n, size=1), rng)
    second = repair_schedule(first.artifacts, g_third, cost_new)
    full = inspect_with_artifacts(g_third, cost_new, p)
    assert_same_schedule(second.schedule, full.schedule)


# ----------------------------------------------------------------------
# deltas and diffs
# ----------------------------------------------------------------------
def test_pattern_delta_validates_row_map():
    with pytest.raises(ValueError, match="length"):
        PatternDelta(3, 3, np.array([0, 1]))
    with pytest.raises(ValueError, match="out of range"):
        PatternDelta(2, 2, np.array([0, 5]))
    with pytest.raises(ValueError, match="increasing"):
        PatternDelta(3, 3, np.array([1, 0, 2]))
    d = PatternDelta(4, 3, np.array([0, -1, 1, 2]))
    assert list(d.removed) == [1]
    assert list(d.retained_old) == [0, 2, 3]
    assert list(d.retained_new) == [0, 1, 2]
    assert list(d.added) == []
    assert not d.is_identity
    assert PatternDelta.identity(4).is_identity


def test_diff_dag_requires_row_map_on_size_change():
    a = DAG.from_edges(3, [0], [1])
    b = DAG.from_edges(4, [0], [1])
    with pytest.raises(ValueError, match="row_map required"):
        diff_dag(a, b)
    assert diff_dag(a, DAG.from_edges(3, [0], [2])).is_identity


def test_changed_rows_sees_renumbered_targets():
    # old: 0->2, 1->2; drop row 2 entirely — both survivors' edge lists
    # vanish, and row 1 (renumbered from old row 1) reads as changed
    g_old = DAG.from_edges(3, [0, 1], [2, 2])
    g_new = DAG.from_edges(2, [], [])
    delta = PatternDelta(3, 2, np.array([0, 1, -1]))
    assert list(changed_rows(g_old, g_new, delta)) == [0, 1]
    # identical pattern: nothing changed
    same = diff_dag(g_old, g_old)
    assert changed_rows(g_old, g_old, same).size == 0


def test_oversized_delta_falls_back_to_full():
    rng = np.random.default_rng(0)
    g_old = dag_from_matrix_lower(poisson2d(12, seed=1))
    cost = np.ones(g_old.n)
    old = inspect_with_artifacts(g_old, cost, 4)
    assert not old.schedule.fine_grained
    # rewrite most rows: dirty fraction blows the splice budget
    g_new = _rewrite_rows(g_old, np.arange(g_old.n - 10), rng)
    res = repair_schedule(old, g_new, cost)
    assert res.mode == "full"
    assert "dirty fraction" in res.stats["reason"]
    full = inspect_with_artifacts(g_new, cost, 4)
    assert_same_schedule(res.schedule, full.schedule)


# ----------------------------------------------------------------------
# cache wiring
# ----------------------------------------------------------------------
def _key_for(g, cost, p, backend=""):
    return schedule_key(g, kernel="t", algorithm="hdagg", p=p, cost=cost,
                        backend=backend)


def test_acquire_full_then_repair_then_hit():
    rng = np.random.default_rng(1)
    g1 = dag_from_matrix_lower(poisson2d(10, seed=1))
    cost = np.ones(g1.n)
    cache = IncrementalScheduleCache()
    fam = family_key(kernel="t", p=4, label="poisson10")
    s1, src1 = cache.acquire(_key_for(g1, cost, 4), fam, g1, cost, p=4)
    assert src1 == "full"
    g2 = _rewrite_rows(g1, np.array([g1.n // 2]), rng)
    s2, src2 = cache.acquire(_key_for(g2, cost, 4), fam, g2, cost, p=4)
    assert src2 in ("repaired", "full")
    assert_same_schedule(s2, inspect_with_artifacts(g2, cost, 4).schedule)
    s3, src3 = cache.acquire(_key_for(g2, cost, 4), fam, g2, cost, p=4)
    assert src3 == "hit"
    assert s3 is s2
    assert cache.repairs + cache.repair_fulls == 1
    cache.clear()
    assert cache.artifacts_for(fam) is None
    assert cache.repairs == 0


def test_repaired_acquire_reports_pass_times_within_its_wall_time():
    """A repair's stage split uses the registry's pass names plus its own
    ``diff`` stage, and never claims more than the acquire took."""
    from repro.passes import PASS_GROUPS

    pass_names = {p.name for group in PASS_GROUPS.values() for p in group.passes}
    g = dag_from_matrix_lower(poisson2d(96, seed=1))
    cost = np.ones(g.n)
    cache = IncrementalScheduleCache()
    fam = family_key(kernel="t", p=8, label="poisson96")
    cache.acquire(_key_for(g, cost, 8), fam, g, cost, p=8)
    rng = np.random.default_rng(0)
    keep = np.ones(g.indices.size, dtype=bool)
    for r in rng.choice(g.n, size=5, replace=False):
        lo, hi = int(g.indptr[r]), int(g.indptr[r + 1])
        if hi > lo:
            keep[int(rng.integers(lo, hi))] = False
    esrc, edst = g.edge_list()
    g_new = DAG.from_edges(g.n, esrc[keep], edst[keep])
    t0 = time.perf_counter()
    schedule, source = cache.acquire(_key_for(g_new, cost, 8), fam, g_new, cost, p=8)
    wall = time.perf_counter() - t0
    assert source == "repaired"
    stages = schedule.meta["stage_seconds"]
    assert set(stages) <= pass_names | {"diff"}, set(stages) - pass_names
    assert sum(stages.values()) <= wall


def test_family_key_separates_parameters():
    base = dict(kernel="sptrsv", p=8, epsilon=0.1, backend="numpy", label="m")
    k = family_key(**base)
    assert family_key(**{**base, "p": 4}) != k
    assert family_key(**{**base, "epsilon": 0.2}) != k
    assert family_key(**{**base, "backend": "compiled"}) != k
    assert family_key(**{**base, "label": "other"}) != k
    assert family_key(**{**base, "kernel": "spic0"}) != k
    assert family_key(**base) == k


@pytest.mark.flaky
def test_repair_beats_full_on_mesh():
    # the documented budget configuration (natural-ordered mesh, p=8,
    # 5-row delta) lands near 0.22x in practice; assert a generous 0.8x so
    # only a broken repair path — not scheduler noise — can fail this
    g = dag_from_matrix_lower(poisson2d(96, seed=1))
    cost = np.ones(g.n)
    old = inspect_with_artifacts(g, cost, 8)
    # drop one dependence from each of 5 random rows — the local,
    # factorization-update-shaped delta the budget is stated for
    rng = np.random.default_rng(0)
    keep = np.ones(g.indices.size, dtype=bool)
    for r in rng.choice(g.n, size=5, replace=False):
        lo, hi = int(g.indptr[r]), int(g.indptr[r + 1])
        if hi > lo:
            keep[int(rng.integers(lo, hi))] = False
    esrc, edst = g.edge_list()
    g_new = DAG.from_edges(g.n, esrc[keep], edst[keep])
    res = repair_schedule(old, g_new, cost)
    assert res.mode == "repaired"
    assert res.stats["n_reused_cws"] > res.stats["n_live_cws"]
    t_rep, t_full = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        repair_schedule(old, g_new, cost)
        t_rep.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        inspect_with_artifacts(g_new, cost, 8)
        t_full.append(time.perf_counter() - t0)
    assert min(t_rep) < 0.8 * min(t_full), (min(t_rep), min(t_full))
