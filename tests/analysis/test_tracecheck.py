"""Vector-clock replay of executor traces: hand logs and stepped runs."""

from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import MUTATIONS, TraceRecorder, apply_mutation, check_trace
from repro.analysis.tracecheck import HappensBeforeViolation, TraceReport
from repro.graph import DAG, dag_from_matrix_lower
from repro.kernels import KERNELS
from repro.runtime import ExecutionError, run_cores
from repro.schedulers import SCHEDULERS
from repro.sparse import lower_triangle

from ..observability.test_trace_properties import random_dags


@pytest.fixture(scope="module")
def edge_dag():
    return DAG.from_edges(2, [0], [1])


def test_clean_p2p_trace(edge_dag):
    events = [(0, "exec", 0, 0), (1, "acquire", 1, 0), (2, "exec", 1, 1)]
    report = check_trace(events, edge_dag)
    assert report.ok and report.n_executed == 2
    assert "clean" in report.describe()


def test_clean_barrier_trace(edge_dag):
    events = [
        (0, "exec", 0, 0),
        (1, "barrier", 0, 0),
        (2, "barrier", 1, 0),
        (3, "exec", 1, 1),
    ]
    assert check_trace(events, edge_dag).ok


def test_unsynchronised_dependence_flagged(edge_dag):
    # both executed, no acquire and no barrier: nothing orders 0 before 1
    events = [(0, "exec", 0, 0), (1, "exec", 1, 1)]
    report = check_trace(events, edge_dag)
    assert not report.ok
    kinds = {v.kind for v in report.violations}
    assert "unordered-dependence" in kinds
    v = next(v for v in report.violations if v.kind == "unordered-dependence")
    assert (v.vertex, v.dependence) == (1, 0)
    assert "happens-before" in v.describe()


def test_same_core_program_order_suffices(edge_dag):
    # no explicit sync needed when producer and consumer share a core
    events = [(0, "exec", 0, 0), (1, "exec", 0, 1)]
    assert check_trace(events, edge_dag).ok


def test_missing_dependence_flagged(edge_dag):
    events = [(0, "exec", 1, 1), (1, "exec", 0, 0)]
    report = check_trace(events, edge_dag)
    assert not report.ok
    assert any(v.kind == "missing-dependence" for v in report.violations)


def test_duplicate_exec_flagged(edge_dag):
    events = [(0, "exec", 0, 0), (1, "exec", 1, 0), (2, "acquire", 1, 0), (3, "exec", 1, 1)]
    report = check_trace(events, edge_dag)
    assert any(v.kind == "duplicate-exec" and v.vertex == 0 for v in report.violations)


def test_never_executed_flagged(edge_dag):
    report = check_trace([(0, "exec", 0, 0)], edge_dag)
    assert any(v.kind == "never-executed" and v.vertex == 1 for v in report.violations)
    assert check_trace([(0, "exec", 0, 0)], edge_dag, expect_all=False).ok


def test_acquire_before_exec_flagged(edge_dag):
    events = [(0, "acquire", 1, 0), (1, "exec", 0, 0), (2, "exec", 1, 1)]
    report = check_trace(events, edge_dag)
    assert any(v.kind == "acquire-before-exec" for v in report.violations)


def test_barrier_mismatch_flagged(edge_dag):
    events = [(0, "exec", 0, 0), (1, "barrier", 0, 0), (2, "exec", 1, 1)]
    report = check_trace(events, edge_dag)
    assert any(v.kind == "barrier-mismatch" for v in report.violations)


def test_empty_trace_on_empty_dag():
    assert check_trace([], DAG.from_edges(0, [], [])).ok


def test_max_violations_caps_output():
    g = DAG.from_edges(6, [0, 1, 2, 3, 4], [1, 2, 3, 4, 5])
    # execute everything in reverse on alternating cores, no sync at all
    events = [(i, "exec", i % 2, 5 - i) for i in range(6)]
    report = check_trace(events, g, max_violations=2)
    assert not report.ok and len(report.violations) == 2


@pytest.mark.parametrize("algo", ["hdagg", "wavefront", "spmp", "lbc"])
def test_stepped_runs_replay_clean(algo, mesh_nd, rng):
    kernel = KERNELS["sptrsv"]
    low = lower_triangle(mesh_nd)
    g = kernel.dag(low)
    cost = kernel.cost(low)
    s = SCHEDULERS[algo](g, cost, 4)
    rec = TraceRecorder()
    run_cores(s, g, cost=cost, trace=rec)
    report = check_trace(rec.events, g)
    assert report.ok, report.describe()
    assert report.n_executed == g.n
    assert len(rec) == report.n_events


def test_recorder_sequences_are_unique_and_monotone(mesh_nd):
    g = dag_from_matrix_lower(mesh_nd)
    s = SCHEDULERS["hdagg"](g, np.ones(g.n), 4)
    rec = TraceRecorder()
    run_cores(s, g, trace=rec)
    seqs = [e[0] for e in rec.events]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)


# ----------------------------------------------------------------------
# the replay on Python scalars == the former NumPy replay
# ----------------------------------------------------------------------
def _check_trace_oracle(
    events: List[Tuple[int, str, int, int]],
    g: DAG,
    *,
    n_cores: Optional[int] = None,
    expect_all: bool = True,
    max_violations: int = 16,
) -> TraceReport:
    """The former ``check_trace`` body: clocks as NumPy rows."""
    if n_cores is None:
        n_cores = max((e[2] for e in events), default=0) + 1
    p = max(1, int(n_cores))
    violations: List[HappensBeforeViolation] = []

    def add(v: HappensBeforeViolation) -> None:
        if len(violations) < max_violations:
            violations.append(v)

    per_core: List[List[Tuple[int, str, int]]] = [[] for _ in range(p)]
    for seq, kind, core, a in sorted(events):
        per_core[core].append((seq, kind, a))
    barrier_counts = [sum(1 for e in stream if e[1] == "barrier") for stream in per_core]
    n_epochs = max(barrier_counts, default=0) + 1
    if len(set(barrier_counts)) > 1:
        worst = int(np.argmin(barrier_counts))
        add(HappensBeforeViolation("barrier-mismatch", -1, -1, worst, -1))

    epochs: List[List[Tuple[int, str, int, int]]] = [[] for _ in range(n_epochs)]
    for core, stream in enumerate(per_core):
        e = 0
        for seq, kind, a in stream:
            if kind == "barrier":
                e += 1
                continue
            epochs[e].append((seq, kind, core, a))

    vc = np.zeros((p, p), dtype=np.int64)
    write_clock: Dict[int, np.ndarray] = {}
    exec_core: Dict[int, int] = {}
    in_ptr, in_idx = g.in_ptr, g.in_idx

    for epoch_events in epochs:
        for _, kind, core, a in sorted(epoch_events):
            if kind == "acquire":
                w = write_clock.get(a)
                if w is None:
                    add(HappensBeforeViolation("acquire-before-exec", -1, a, core, -1))
                else:
                    np.maximum(vc[core], w, out=vc[core])
            elif kind == "exec":
                v = a
                if v in exec_core:
                    add(HappensBeforeViolation("duplicate-exec", v, -1, core, exec_core[v]))
                vc[core, core] += 1
                for u in in_idx[in_ptr[v] : in_ptr[v + 1]].tolist():
                    w = write_clock.get(u)
                    if w is None:
                        add(HappensBeforeViolation("missing-dependence", v, u, core, -1))
                    elif not bool(np.all(w <= vc[core])):
                        add(
                            HappensBeforeViolation(
                                "unordered-dependence", v, u, core, exec_core.get(u, -1)
                            )
                        )
                write_clock[v] = vc[core].copy()
                exec_core[v] = core
        joined = vc.max(axis=0)
        vc[:] = joined

    if expect_all:
        for v in range(g.n):
            if v not in exec_core:
                add(HappensBeforeViolation("never-executed", v, -1, -1, -1))

    return TraceReport(
        ok=not violations,
        n_events=len(events),
        n_executed=len(exec_core),
        violations=violations,
    )


def _stepped_events(schedule, g) -> List[Tuple[int, str, int, int]]:
    """The stepper's events, cut short where the run raised."""
    rec = TraceRecorder()
    try:
        run_cores(schedule, g, trace=rec)
    except ExecutionError:
        pass
    return rec.events


@given(random_dags(max_n=18, max_edges=50),
       st.integers(1, 4),
       st.sampled_from(["hdagg", "spmp", "wavefront", "lbc", "dagp"]),
       st.sampled_from([None, *sorted(MUTATIONS)]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_check_trace_matches_numpy_oracle(g, p, algo, mutation, seed):
    schedule = SCHEDULERS[algo](g, np.ones(g.n), p)
    if mutation is not None:
        schedule = apply_mutation(mutation, schedule, g, seed=seed % 3) or schedule
    events = _stepped_events(schedule, g)
    # also damaged logs: dropped events and reassigned cores
    rnd = np.random.default_rng(seed)
    keep = rnd.random(len(events)) < 0.8
    damaged = [
        (seq, kind, int(rnd.integers(p)) if rnd.random() < 0.1 else core, a)
        for (seq, kind, core, a), k in zip(events, keep)
        if k
    ]
    n_cores = max((e[2] for e in events + damaged), default=0) + 2  # one core idle
    for log in (events, damaged):
        for kwargs in ({}, {"expect_all": False, "n_cores": n_cores}, {"max_violations": 2}):
            assert check_trace(log, g, **kwargs) == _check_trace_oracle(log, g, **kwargs)
