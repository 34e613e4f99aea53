"""Chaos suite: seeded fault-injection runs must degrade, never hang or leak.

Three deterministic seeds drive :meth:`FaultPlan.chaos` over a small grid;
every outcome must be a normal record, a degraded record, or a structured
:class:`FailureRecord` — no raw exceptions escape and re-running a seed
reproduces the exact same injected faults.  Executor-level chaos checks
that an injected core stall trips PR 2's p2p deadlock detector with the
correct (core, vertex, dependence) triple, and that a hard-killed fork
pool worker is recovered by the parent's serial retry path.
"""

import numpy as np
import pytest

from repro.core import ScheduleCache
from repro.core.schedule import Schedule, WidthPartition
from repro.graph import DAG
from repro.resilience import FailureRecord
from repro.resilience.faults import FaultPlan, FaultSpec, armed
from repro.runtime.threaded import ThreadedExecutionError, run_threaded
from repro.suite import Harness
from repro.suite.harness import RunRecord
from repro.suite.matrices import SUITE

CHAOS_SEEDS = (0, 1, 2)

TIMING_FIELDS = {"inspector_seconds", "stage_seconds", "schedule_cached"}


def _strip(record):
    return {k: v for k, v in record.__dict__.items() if k not in TIMING_FIELDS}


def _chaos_run(seed):
    harness = Harness(
        kernels=("sptrsv",),
        algorithms=("hdagg", "wavefront"),
        schedule_cache=ScheduleCache(),
    )
    failures = []
    plan = FaultPlan.chaos(seed)
    with armed(plan):
        records = harness.run_suite(
            SUITE[:2], isolate_failures=True, failures=failures
        )
    return plan, records, failures


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_chaos_degrades_gracefully(seed):
    plan, records, failures = _chaos_run(seed)
    # every row is a structured outcome; nothing escaped as a raw exception
    assert all(isinstance(r, RunRecord) for r in records)
    assert all(isinstance(f, FailureRecord) for f in failures)
    for f in failures:
        assert f.stage in ("prepare", "run", "worker")
        assert f.error_type and f.message
    for r in records:
        if r.degraded:
            assert r.degraded_from
            assert r.algorithm not in r.degraded_from.split(",")
    for event in plan.fired:
        assert event.site in {s.site for s in plan.specs}


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_chaos_is_deterministic(seed):
    plan_a, records_a, failures_a = _chaos_run(seed)
    plan_b, records_b, failures_b = _chaos_run(seed)
    assert plan_a.describe() == plan_b.describe()
    assert [(e.site, e.action, e.occurrence, e.label) for e in plan_a.fired] == [
        (e.site, e.action, e.occurrence, e.label) for e in plan_b.fired
    ]
    assert [_strip(r) for r in records_a] == [_strip(r) for r in records_b]
    assert [f.as_dict() for f in failures_a] == [f.as_dict() for f in failures_b]


def test_cache_corruption_is_revalidated_away():
    """A corrupted cache hit must be invalidated and re-inspected, not used."""
    cache = ScheduleCache()
    harness = Harness(
        kernels=("sptrsv",), algorithms=("wavefront",), schedule_cache=cache
    )
    clean = harness.run_suite(SUITE[:1])
    plan = FaultPlan([FaultSpec("schedule_cache.get", "corrupt", times=-1)])
    with armed(plan):
        poisoned = harness.run_suite(SUITE[:1])
    assert plan.fired, "the cache-hit fault never fired"
    # the corrupted entry was dropped and re-inspected: rows match the clean
    # run and are *not* flagged as cache hits
    assert [_strip(r) for r in poisoned] == [_strip(r) for r in clean]
    assert not any(r.schedule_cached for r in poisoned)
    # the cache healed: a later dormant run hits the re-inserted entry
    healed = harness.run_suite(SUITE[:1])
    assert all(r.schedule_cached for r in healed)


def test_corrupt_prepare_is_sanitized_or_isolated():
    """Every CSR corruption class is either repaired or a structured failure."""
    for seed in CHAOS_SEEDS:
        harness = Harness(kernels=("sptrsv",), algorithms=("wavefront",))
        failures = []
        plan = FaultPlan(
            [FaultSpec("harness.prepare", "corrupt", at=0, times=-1)], seed=seed
        )
        with armed(plan):
            records = harness.run_suite(
                SUITE[:2], isolate_failures=True, failures=failures
            )
        assert plan.fired
        # every outcome is either a repaired-and-run record or a structured
        # sanitizer rejection — never a raw numpy error
        assert len(records) + len(failures) > 0
        for f in failures:
            assert f.error_type == "CSRSanitizeError"


def test_inspector_stage_stall_is_attributed_and_bit_identical():
    """A stall injected into one named pass lands in that stage's timer
    window and cannot change the schedule bytes."""
    from repro.core.hdagg import hdagg

    # 8 independent 5-vertex chains: enough width for a coarse schedule
    srcs = [c * 5 + i for c in range(8) for i in range(4)]
    dsts = [c * 5 + i + 1 for c in range(8) for i in range(4)]
    g = DAG.from_edges(40, srcs, dsts)
    cost = np.ones(40)
    clean = hdagg(g, cost, 4)
    plan = FaultPlan(
        [FaultSpec("inspector.stage", "stall", times=-1, match="lbp", duration=0.05)]
    )
    with armed(plan):
        stalled = hdagg(g, cost, 4)
    assert [(e.site, e.action, e.label) for e in plan.fired] == [
        ("inspector.stage", "stall", "lbp")
    ]
    # the stall is charged to the lbp stage, not smeared over the pipeline
    assert stalled.meta["stage_seconds"]["lbp"] >= 0.05
    # timing noise never reaches the schedule itself
    assert stalled.execution_order().tolist() == clean.execution_order().tolist()
    assert [
        [(wp.core, wp.vertices.tolist()) for wp in level] for level in stalled.levels
    ] == [
        [(wp.core, wp.vertices.tolist()) for wp in level] for level in clean.levels
    ]


def test_inspector_stage_stall_fires_on_a_baseline_pass():
    """Baselines run through the same driver: a stall matched on their
    ``wavefronts`` pass fires and lands in that pass's timer window."""
    from repro.schedulers import SCHEDULERS

    g = DAG.from_edges(6, [0, 1, 2, 3, 4], [1, 2, 3, 4, 5])
    plan = FaultPlan(
        [FaultSpec("inspector.stage", "stall", times=-1, match="wavefronts", duration=0.05)]
    )
    with armed(plan):
        stalled = SCHEDULERS["wavefront"](g, np.ones(6), 2)
    assert [(e.site, e.action, e.label) for e in plan.fired] == [
        ("inspector.stage", "stall", "wavefronts")
    ]
    assert stalled.meta["stage_seconds"]["wavefronts"] >= 0.05


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_inspector_stage_chaos_sweep_fires_only_known_labels(seed):
    """Chaos plans drawn over the per-stage site stay inside the labels the
    executor actually emits, for every seed."""
    from repro.core.hdagg import hdagg
    from repro.passes import get_pass_group

    known_labels = {p.name for p in get_pass_group("hdagg").passes}
    plan = FaultPlan.chaos(seed, sites=("inspector.stage",))
    g = DAG.from_edges(6, [0, 1, 2, 3, 4], [1, 2, 3, 4, 5])
    with armed(plan):
        for _ in range(3):
            hdagg(g, np.ones(6), 2)
    assert plan.fired, "no occurrence matched any planned fault"
    for event in plan.fired:
        assert event.site == "inspector.stage"
        assert event.action == "stall"
        assert event.label in known_labels


def test_executor_stall_trips_deadlock_detector():
    """An injected core stall must surface as the detector's stuck triple."""
    g = DAG.from_edges(2, [0], [1])
    schedule = Schedule(
        n=2,
        levels=[
            [WidthPartition(0, np.array([0]))],
            [WidthPartition(1, np.array([1]))],
        ],
        sync="p2p",
        algorithm="test",
        n_cores=2,
    )
    plan = FaultPlan(
        [FaultSpec("executor.stall", "stall", times=-1, match="0", duration=1.5)]
    )
    with armed(plan):
        with pytest.raises(ThreadedExecutionError) as exc_info:
            run_threaded(
                schedule, g, lambda v: None, deadlock_timeout=0.2, spin_yield=False
            )
    err = exc_info.value
    assert (err.core, err.vertex, err.dependence) == (1, 1, 0)
    assert "deadlock" in str(err)


def test_executor_worker_crash_names_core_and_vertex():
    g = DAG.from_edges(2, [], [])
    schedule = Schedule(
        n=2,
        levels=[
            [WidthPartition(0, np.array([0])), WidthPartition(1, np.array([1]))]
        ],
        sync="barrier",
        algorithm="test",
        n_cores=2,
    )
    plan = FaultPlan([FaultSpec("executor.worker", "raise", times=-1, match="1")])
    with armed(plan):
        with pytest.raises(ThreadedExecutionError) as exc_info:
            run_threaded(schedule, g, lambda v: None)
    assert exc_info.value.core == 1


def test_pool_worker_death_recovered_serially():
    """A hard-killed fork worker is detected and its matrix re-run in-parent."""
    specs = SUITE[:3]
    harness = Harness(kernels=("sptrsv",), algorithms=("wavefront",))
    reference = Harness(
        kernels=("sptrsv",), algorithms=("wavefront",)
    ).run_suite(specs)
    plan = FaultPlan(
        [FaultSpec("pool.worker", "exit", times=-1, match=specs[1].name)]
    )
    with armed(plan):
        records = harness.run_suite(specs, n_jobs=2, worker_timeout=5.0)
    assert [_strip(r) for r in records] == [_strip(r) for r in reference]


def test_pool_worker_exception_names_matrix():
    """An in-worker exception must be retried serially, then isolated with context."""
    specs = SUITE[:2]
    harness = Harness(kernels=("sptrsv",), algorithms=("wavefront",))
    failures = []
    plan = FaultPlan(
        [FaultSpec("suite.matrix", "raise", times=-1, match=specs[0].name)]
    )
    with armed(plan):
        records = harness.run_suite(
            specs, n_jobs=2, isolate_failures=True, failures=failures
        )
    assert [f.matrix for f in failures] == [specs[0].name]
    assert failures[0].stage == "worker"
    assert {r.matrix for r in records} == {specs[1].name}
