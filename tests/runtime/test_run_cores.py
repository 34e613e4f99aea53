"""Tests for the deterministic core stepper (``run_cores``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import MUTATIONS, TraceRecorder, apply_mutation, check_trace, verify_dependences
from repro.core.schedule import Schedule
from repro.graph import DAG, dag_from_matrix_lower
from repro.kernels import KERNELS
from repro.observability.timeline import TimelineRecorder
from repro.runtime import ExecutionError, bind_dynamic_partitions, run_cores
from repro.schedulers import SCHEDULERS
from repro.sparse import lower_triangle

from ..observability.test_trace_properties import random_dags


def make_sptrsv_processor(low, b):
    x = np.empty(low.n_rows)
    indptr, indices, data = low.indptr, low.indices, low.data

    def process(i: int) -> None:
        lo, hi = indptr[i], indptr[i + 1]
        cols = indices[lo : hi - 1]
        x[i] = (b[i] - data[lo : hi - 1] @ x[cols]) / data[hi - 1]

    return x, process


@pytest.mark.parametrize("algo", ["hdagg", "wavefront", "spmp", "lbc", "dagp"])
def test_sptrsv_through_cores(algo, mesh_nd, rng):
    kernel = KERNELS["sptrsv"]
    low = lower_triangle(mesh_nd)
    g = kernel.dag(low)
    cost = kernel.cost(low)
    b = rng.normal(size=mesh_nd.n_rows)
    s = SCHEDULERS[algo](g, cost, 4)
    x, process = make_sptrsv_processor(low, b)
    run_cores(s, g, process, cost=cost)
    np.testing.assert_allclose(x, kernel.reference(low, b), rtol=1e-10)


def test_counts_every_vertex_once(mesh_nd):
    g = dag_from_matrix_lower(mesh_nd)
    s = SCHEDULERS["hdagg"](g, np.ones(g.n), 4)
    counts = np.zeros(g.n, dtype=np.int64)

    def process(v: int) -> None:
        counts[v] += 1

    run_cores(s, g, process)
    assert np.all(counts == 1)


def test_invalid_barrier_schedule_detected():
    # edge 0 -> 1 placed in the same level on different cores
    g = DAG.from_edges(2, [0], [1])
    s = Schedule.from_partitions(
        n=2,
        levels=[[(0, np.array([1])), (1, np.array([0]))]],
        sync="barrier",
        algorithm="bad",
        n_cores=2,
    )
    order = []

    def process(v: int) -> None:
        order.append(v)

    # core 0 starts with vertex 1 whose dependence 0 is not done
    with pytest.raises(ExecutionError):
        run_cores(s, g, process)


def test_worker_exception_propagates(mesh_nd):
    g = dag_from_matrix_lower(mesh_nd)
    s = SCHEDULERS["wavefront"](g, np.ones(g.n), 4)

    def process(v: int) -> None:
        if v == 10:
            raise ValueError("boom")

    with pytest.raises(ExecutionError, match="boom"):
        run_cores(s, g, process)


def test_p2p_path(mesh_nd, rng):
    """SpMP's p2p flags let cores overlap levels; results still exact."""
    kernel = KERNELS["sptrsv"]
    low = lower_triangle(mesh_nd)
    g = kernel.dag(low)
    cost = kernel.cost(low)
    b = rng.normal(size=mesh_nd.n_rows)
    s = SCHEDULERS["spmp"](g, cost, 3)
    assert s.sync == "p2p"
    x, process = make_sptrsv_processor(low, b)
    run_cores(s, g, process, cost=cost)
    np.testing.assert_allclose(x, kernel.reference(low, b), rtol=1e-10)


def test_barrier_violation_carries_context():
    g = DAG.from_edges(2, [0], [1])
    s = Schedule.from_partitions(
        n=2,
        levels=[[(0, np.array([1])), (1, np.array([0]))]],
        sync="barrier",
        algorithm="bad",
        n_cores=2,
    )
    # round-robin from core 0: core 0 runs vertex 1 before core 1 runs 0
    with pytest.raises(ExecutionError, match="scheduled before dependence") as exc_info:
        run_cores(s, g)
    exc = exc_info.value
    assert (exc.core, exc.vertex, exc.dependence) == (0, 1, 0)


def test_p2p_deadlock_detected_with_context():
    # vertex 1 waits on dependence 0, which is never scheduled: no core
    # can move, which the stepper sees at once (no timeout involved)
    g = DAG.from_edges(2, [0], [1])
    s = Schedule.from_partitions(
        n=2,
        levels=[[(0, np.array([1]))]],
        sync="p2p",
        algorithm="bad",
        n_cores=1,
    )
    with pytest.raises(ExecutionError, match="deadlock") as exc_info:
        run_cores(s, g)
    exc = exc_info.value
    assert (exc.core, exc.vertex, exc.dependence) == (0, 1, 0)


def test_worker_exception_carries_core_and_vertex(mesh_nd):
    g = dag_from_matrix_lower(mesh_nd)
    s = SCHEDULERS["wavefront"](g, np.ones(g.n), 4)

    def process(v: int) -> None:
        if v == 10:
            raise ValueError("boom")

    with pytest.raises(ExecutionError, match="core \\d+ failed at vertex 10") as ei:
        run_cores(s, g, process)
    assert ei.value.vertex == 10 and ei.value.core is not None
    assert isinstance(ei.value.__cause__, ValueError)


@pytest.mark.parametrize("algo", ["hdagg", "spmp"])
def test_trace_hook_records_every_vertex(algo, mesh_nd):
    g = dag_from_matrix_lower(mesh_nd)
    s = SCHEDULERS[algo](g, np.ones(g.n), 3)
    rec = TraceRecorder()
    run_cores(s, g, trace=rec)
    execs = sorted(a for _, kind, _, a in rec.events if kind == "exec")
    assert execs == list(range(g.n))
    if s.sync == "barrier":
        # every core records every level's barrier
        p = int(s.part_core.max()) + 1
        barriers = [(core, k) for _, kind, core, k in rec.events if kind == "barrier"]
        assert sorted(barriers) == [(c, k) for c in range(p) for k in range(s.n_levels)]
    else:
        assert any(e[1] == "acquire" for e in rec.events)


def test_fine_grained_schedule_bound_first(mesh_nd):
    from repro.core import hdagg

    g = dag_from_matrix_lower(mesh_nd)
    s = hdagg(g, np.ones(g.n), 4, bin_pack=False)
    assert s.fine_grained
    seen = np.zeros(g.n, dtype=bool)

    def process(v: int) -> None:
        seen[v] = True

    run_cores(s, g, process, cost=np.ones(g.n))
    assert seen.all()


def test_cross_core_p2p_deadlock_names_lowest_blocked_core():
    # core 0 waits at 3 for 1, which core 1 runs only after 2, which
    # waits for 0, which core 0 runs only after 3: a cycle of waits
    g = DAG.from_edges(4, [1, 0], [3, 2])
    s = Schedule.from_partitions(
        n=4,
        levels=[[(0, np.array([3, 0])), (1, np.array([2, 1]))]],
        sync="p2p",
        algorithm="bad",
        n_cores=2,
    )
    rec = TraceRecorder()
    with pytest.raises(ExecutionError, match="deadlock") as ei:
        run_cores(s, g, trace=rec)
    assert (ei.value.core, ei.value.vertex, ei.value.dependence) == (0, 3, 1)
    assert rec.events == []


def test_p2p_acquires_every_in_edge_before_exec():
    g = DAG.from_edges(3, [0, 1], [2, 2])
    s = Schedule.from_partitions(
        n=3,
        levels=[[(0, np.array([0])), (1, np.array([1]))], [(0, np.array([2]))]],
        sync="p2p",
        algorithm="test",
        n_cores=2,
    )
    rec = TraceRecorder()
    run_cores(s, g, trace=rec)
    assert [e[1:] for e in rec.events] == [
        ("exec", 0, 0),
        ("exec", 1, 1),
        ("acquire", 0, 0),
        ("acquire", 0, 1),
        ("exec", 0, 2),
    ]


def test_p2p_wait_segment_names_vertex_and_dependence():
    # core 0 blocks at vertex 1 on dependence 0, which core 1 runs next
    g = DAG.from_edges(2, [0], [1])
    s = Schedule.from_partitions(
        n=2,
        levels=[[(0, np.array([1])), (1, np.array([0]))]],
        sync="p2p",
        algorithm="test",
        n_cores=2,
    )
    rec = TimelineRecorder()
    run_cores(s, g, timeline=rec)
    tl = rec.finalize()
    tl.check_invariants(tol=1e-9)
    waits = [seg for seg in tl.cores[0] if seg.kind == "p2p_wait"]
    assert [(w.vertex, w.dependence) for w in waits] == [(1, 0)]
    busy1 = next(seg for seg in tl.cores[1] if seg.kind == "busy")
    assert waits[0].t0 <= busy1.t0 and busy1.t1 <= waits[0].t1


@pytest.mark.parametrize("algo", ["hdagg", "spmp"])
def test_runs_are_deterministic(algo, mesh_nd):
    g = dag_from_matrix_lower(mesh_nd)
    s = SCHEDULERS[algo](g, np.ones(g.n), 4)
    first, second = TraceRecorder(), TraceRecorder()
    run_cores(s, g, trace=first)
    run_cores(s, g, trace=second)
    assert first.events == second.events


# ----------------------------------------------------------------------
# one order suffices: a randomly interleaving stepper agrees
# ----------------------------------------------------------------------
def _random_order_run(schedule, g, seed, trace):
    """Step one vertex at a time on a randomly chosen core that can move.

    A deliberately different stepper from ``run_cores``: finest-grained
    interleaving, cores picked by a seeded RNG instead of round-robin.
    """
    rnd = np.random.default_rng(seed)
    schedule = bind_dynamic_partitions(schedule, np.ones(schedule.n))
    p = int(schedule.part_core.max(initial=0)) + 1
    levels = schedule.partition_level().tolist()
    programs = [[[] for _ in range(schedule.n_levels)] for _ in range(p)]
    for j, core in enumerate(schedule.part_core.tolist()):
        part = schedule.order[schedule.part_ptr[j] : schedule.part_ptr[j + 1]]
        programs[core % p][levels[j]].extend(part.tolist())
    deps = [g.in_idx[g.in_ptr[v] : g.in_ptr[v + 1]].tolist() for v in range(g.n)]
    done = [False] * g.n
    if schedule.sync == "barrier":
        for k in range(schedule.n_levels):
            queues = [list(programs[c][k]) for c in range(p)]
            while any(queues):
                core = int(rnd.choice([c for c in range(p) if queues[c]]))
                v = queues[core].pop(0)
                if not all(done[u] for u in deps[v]):
                    raise ExecutionError("unmet dependence")
                trace.record("exec", core, v)
                done[v] = True
            for core in range(p):
                trace.record("barrier", core, k)
    else:
        queues = [[v for level in programs[c] for v in level] for c in range(p)]
        while any(queues):
            ready = [c for c in range(p)
                     if queues[c] and all(done[u] for u in deps[queues[c][0]])]
            if not ready:
                raise ExecutionError("deadlock")
            core = int(rnd.choice(ready))
            v = queues[core].pop(0)
            for u in deps[v]:
                trace.record("acquire", core, u)
            trace.record("exec", core, v)
            done[v] = True
    if not all(done):
        raise ExecutionError("vertices never executed")


def _verdict(run, schedule, g) -> str:
    rec = TraceRecorder()
    try:
        run(schedule, g, rec)
    except ExecutionError:
        return "raise"
    return "clean" if check_trace(rec.events, g).ok else "trace"


@given(random_dags(max_n=18, max_edges=50),
       st.integers(1, 4),
       st.sampled_from(["hdagg", "spmp", "wavefront"]),
       st.sampled_from(sorted(MUTATIONS)),
       st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_one_order_gives_every_orders_verdict(g, p, algo, mutation, mseed):
    schedule = SCHEDULERS[algo](g, np.ones(g.n), p)
    mutant = apply_mutation(mutation, schedule, g, seed=mseed) or schedule
    stepped = _verdict(lambda s, gg, rec: run_cores(s, gg, trace=rec), mutant, g)
    for seed in range(4):
        other = _verdict(lambda s, gg, rec: _random_order_run(s, gg, seed, rec), mutant, g)
        if mutant.sync == "p2p":
            assert other == stepped
        else:
            # an in-level dependence raises or is unordered in the trace,
            # depending on which core runs first: both refute
            assert (other == "clean") == (stepped == "clean")
    if stepped != "clean":
        assert not verify_dependences(mutant, g).ok
