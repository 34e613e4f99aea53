"""Tests for the threaded (real-concurrency) executor."""

import numpy as np
import pytest

from repro.core.schedule import Schedule
from repro.graph import DAG, dag_from_matrix_lower
from repro.kernels import KERNELS
from repro.runtime import ThreadedExecutionError, run_threaded
from repro.schedulers import SCHEDULERS
from repro.sparse import lower_triangle


def make_sptrsv_processor(low, b):
    x = np.empty(low.n_rows)
    indptr, indices, data = low.indptr, low.indices, low.data

    def process(i: int) -> None:
        lo, hi = indptr[i], indptr[i + 1]
        cols = indices[lo : hi - 1]
        x[i] = (b[i] - data[lo : hi - 1] @ x[cols]) / data[hi - 1]

    return x, process


@pytest.mark.parametrize("algo", ["hdagg", "wavefront", "spmp", "lbc", "dagp"])
def test_sptrsv_through_threads(algo, mesh_nd, rng):
    kernel = KERNELS["sptrsv"]
    low = lower_triangle(mesh_nd)
    g = kernel.dag(low)
    cost = kernel.cost(low)
    b = rng.normal(size=mesh_nd.n_rows)
    s = SCHEDULERS[algo](g, cost, 4)
    x, process = make_sptrsv_processor(low, b)
    run_threaded(s, g, process, cost=cost)
    np.testing.assert_allclose(x, kernel.reference(low, b), rtol=1e-10)


def test_counts_every_vertex_once(mesh_nd):
    g = dag_from_matrix_lower(mesh_nd)
    s = SCHEDULERS["hdagg"](g, np.ones(g.n), 4)
    counts = np.zeros(g.n, dtype=np.int64)

    def process(v: int) -> None:
        counts[v] += 1

    run_threaded(s, g, process)
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
    with pytest.raises(ThreadedExecutionError):
        run_threaded(s, g, process)


def test_worker_exception_propagates(mesh_nd):
    g = dag_from_matrix_lower(mesh_nd)
    s = SCHEDULERS["wavefront"](g, np.ones(g.n), 4)

    def process(v: int) -> None:
        if v == 10:
            raise ValueError("boom")

    with pytest.raises(ThreadedExecutionError, match="boom"):
        run_threaded(s, g, process)


def test_p2p_spin_path(mesh_nd, rng):
    """SpMP's p2p flags let threads overlap levels; results still exact."""
    kernel = KERNELS["sptrsv"]
    low = lower_triangle(mesh_nd)
    g = kernel.dag(low)
    cost = kernel.cost(low)
    b = rng.normal(size=mesh_nd.n_rows)
    s = SCHEDULERS["spmp"](g, cost, 3)
    assert s.sync == "p2p"
    x, process = make_sptrsv_processor(low, b)
    run_threaded(s, g, process, cost=cost, spin_yield=True)
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
    with pytest.raises(ThreadedExecutionError) as exc_info:
        run_threaded(s, g, lambda v: None)
    exc = exc_info.value
    assert exc.vertex == 1 and exc.dependence == 0 and exc.core is not None


def test_p2p_deadlock_detected_with_context():
    # vertex 1 spins on dependence 0, which is never scheduled: without
    # deadlock detection this would hang forever
    g = DAG.from_edges(2, [0], [1])
    s = Schedule.from_partitions(
        n=2,
        levels=[[(0, np.array([1]))]],
        sync="p2p",
        algorithm="bad",
        n_cores=1,
    )
    with pytest.raises(ThreadedExecutionError, match="deadlock") as exc_info:
        run_threaded(s, g, lambda v: None, deadlock_timeout=0.3)
    exc = exc_info.value
    assert (exc.core, exc.vertex, exc.dependence) == (0, 1, 0)


def test_worker_exception_carries_core_and_vertex(mesh_nd):
    g = dag_from_matrix_lower(mesh_nd)
    s = SCHEDULERS["wavefront"](g, np.ones(g.n), 4)

    def process(v: int) -> None:
        if v == 10:
            raise ValueError("boom")

    with pytest.raises(ThreadedExecutionError, match="core \\d+ failed at vertex 10") as ei:
        run_threaded(s, g, process)
    assert ei.value.vertex == 10 and ei.value.core is not None
    assert isinstance(ei.value.__cause__, ValueError)


@pytest.mark.parametrize("algo", ["hdagg", "spmp"])
def test_trace_hook_records_every_vertex(algo, mesh_nd):
    from repro.analysis import TraceRecorder

    g = dag_from_matrix_lower(mesh_nd)
    s = SCHEDULERS[algo](g, np.ones(g.n), 3)
    rec = TraceRecorder()
    run_threaded(s, g, lambda v: None, trace=rec, deadlock_timeout=15.0)
    execs = sorted(a for _, kind, _, a in rec.events if kind == "exec")
    assert execs == list(range(g.n))
    if s.sync == "barrier":
        assert sum(1 for e in rec.events if e[1] == "barrier") > 0
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

    run_threaded(s, g, process, cost=np.ones(g.n))
    assert seen.all()
