"""Property-based tests for the observability layer (satellite S2).

Four families of invariants, explored by hypothesis well past what the
unit tests pin down:

* spans strictly nest per thread — every child interval lies inside its
  parent's, depths count enclosing spans, parents close after children;
* finalized timelines never overlap and are gapless — per core,
  ``busy + barrier_wait + p2p_wait + idle == wall`` exactly;
* the core stepper's recorded busy segments match the schedule —
  one per vertex, levels agree with ``Schedule.level_of``, and per-core
  level order is non-decreasing (the wavefront order);
* the simulator's model timeline reproduces its own scalar outputs.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import DAG
from repro.observability.spans import Tracer
from repro.observability.timeline import TimelineRecorder
from repro.schedulers import SCHEDULERS


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def random_dags(draw, max_n=24, max_edges=80):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_edges))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    keep = src < dst
    return DAG.from_edges(n, src[keep], dst[keep])


@st.composite
def span_programs(draw, max_ops=30):
    """A balanced push/pop program driving one tracer thread."""
    ops = []
    depth = 0
    for _ in range(draw(st.integers(1, max_ops))):
        if depth == 0 or draw(st.booleans()):
            ops.append("push")
            depth += 1
        else:
            ops.append("pop")
            depth -= 1
    ops.extend(["pop"] * depth)
    return ops


@st.composite
def recorded_segments(draw, max_cores=4, max_segments=12):
    """Per-core non-overlapping (kind, t0, t1) records plus a wall span."""
    n_cores = draw(st.integers(1, max_cores))
    cores = {}
    t_max = 0.0
    for c in range(n_cores):
        cursor = 0.0
        segs = []
        for _ in range(draw(st.integers(0, max_segments))):
            gap = draw(st.floats(0.0, 3.0, allow_nan=False, allow_infinity=False))
            width = draw(st.floats(0.0, 3.0, allow_nan=False, allow_infinity=False))
            kind = draw(st.sampled_from(["busy", "barrier_wait", "p2p_wait"]))
            t0 = cursor + gap
            segs.append((kind, t0, t0 + width))
            cursor = t0 + width
        cores[c] = segs
        t_max = max(t_max, cursor)
    slack = draw(st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False))
    return cores, t_max + slack


# ----------------------------------------------------------------------
# spans strictly nest
# ----------------------------------------------------------------------
@given(span_programs())
@settings(max_examples=100, deadline=None)
def test_spans_strictly_nest(ops):
    clock_t = [0.0]

    def clock():
        clock_t[0] += 1.0
        return clock_t[0]

    tracer = Tracer(clock=clock)
    stack = []
    for i, op in enumerate(ops):
        if op == "push":
            cm = tracer.span(f"s{i}")
            cm.__enter__()
            stack.append(cm)
        else:
            stack.pop().__exit__(None, None, None)
    spans = tracer.spans
    assert len(spans) == ops.count("push")
    for idx, s in enumerate(spans):
        assert s.t1 > s.t0  # the fake clock strictly advances
        if s.parent == -1:
            assert s.depth == 0
            continue
        parent = spans[s.parent]
        assert s.depth == parent.depth + 1
        # strict containment: children open after and close before parents
        assert parent.t0 < s.t0 and s.t1 < parent.t1
    # siblings of one parent never overlap
    by_parent = {}
    for s in spans:
        by_parent.setdefault(s.parent, []).append(s)
    for sibs in by_parent.values():
        sibs.sort(key=lambda s: s.t0)
        for a, b in zip(sibs, sibs[1:]):
            assert a.t1 <= b.t0


# ----------------------------------------------------------------------
# timelines: non-overlap and exact wall cover
# ----------------------------------------------------------------------
@given(recorded_segments())
@settings(max_examples=100, deadline=None)
def test_finalized_timelines_cover_wall_exactly(case):
    cores, wall_t1 = case
    rec = TimelineRecorder()
    rec.open(len(cores))
    rec.wall_t0, rec.wall_t1 = 0.0, wall_t1
    for c, segs in cores.items():
        for kind, t0, t1 in segs:
            rec.record(c, kind, t0, t1)
    tl = rec.finalize()
    tl.check_invariants(tol=1e-9)
    for c in tl.cores:
        by_kind = tl.seconds_by_kind(c)
        total = sum(by_kind[k] for k in ("busy", "barrier_wait", "p2p_wait", "idle"))
        assert total == approx_wall(tl.wall)
        # segments sorted and disjoint
        segs = tl.cores[c]
        for a, b in zip(segs, segs[1:]):
            assert a.t1 <= b.t0 + 1e-12


def approx_wall(wall):
    import pytest

    return pytest.approx(wall, rel=1e-9, abs=1e-9)


# ----------------------------------------------------------------------
# executor timelines match the schedule
# ----------------------------------------------------------------------
@given(random_dags(max_n=20, max_edges=60),
       st.integers(1, 4),
       st.sampled_from(["hdagg", "wavefront", "spmp"]))
@settings(max_examples=20, deadline=None)
def test_executor_timeline_matches_schedule(g, p, algo):
    from repro.runtime.executor import run_cores

    cost = np.ones(g.n)
    schedule = SCHEDULERS[algo](g, cost, p)
    rec = TimelineRecorder()
    seen = []
    run_cores(schedule, g, seen.append, cost=cost, timeline=rec)
    tl = rec.finalize()
    tl.check_invariants(tol=1e-6)
    assert sorted(seen) == list(range(g.n))

    busy = [s for segs in tl.cores.values() for s in segs if s.kind == "busy"]
    # exactly one busy segment per vertex, each naming its vertex
    assert sorted(s.vertex for s in busy) == list(range(g.n))
    level_of = schedule.level_of()
    for s in busy:
        assert s.level == int(level_of[s.vertex])
    # per core, the wavefront order is respected: levels never decrease
    for c, segs in tl.cores.items():
        levels = [s.level for s in segs if s.kind == "busy"]
        assert levels == sorted(levels)


@given(random_dags(max_n=20, max_edges=60), st.integers(2, 4))
@settings(max_examples=15, deadline=None)
def test_executor_wavefront_spans_are_ordered(g, p):
    """Observed `execute/wavefront[k]` spans appear in schedule order."""
    from repro.observability.state import observed
    from repro.runtime.executor import run_cores

    cost = np.ones(g.n)
    schedule = SCHEDULERS["hdagg"](g, cost, p)
    with observed() as (tracer, _):
        run_cores(schedule, g, cost=cost)
    waves = tracer.spans_named("execute/wavefront[")
    assert [s.attrs["level"] for s in waves] == list(range(schedule.n_levels))
    # every partition span nests inside its own level's wavefront span
    for part in tracer.spans_named("execute/partition["):
        wave = waves[part.attrs["level"]]
        assert wave.t0 <= part.t0 and part.t1 <= wave.t1


# ----------------------------------------------------------------------
# simulator timelines reproduce the scalar results
# ----------------------------------------------------------------------
@given(random_dags(max_n=20, max_edges=60),
       st.sampled_from(["hdagg", "spmp", "dagp"]))
@settings(max_examples=20, deadline=None)
def test_simulator_timeline_reproduces_results(g, algo):
    from repro.kernels import MemoryModel
    from repro.runtime import LAPTOP4, simulate

    cost = np.ones(g.n)
    mem = MemoryModel(np.ones(g.n), np.ones(g.n_edges))
    schedule = SCHEDULERS[algo](g, cost, LAPTOP4.n_cores)
    r = simulate(schedule, g, cost, mem, LAPTOP4, collect_timeline=True)
    tl = r.timeline
    assert tl is not None
    tl.check_invariants(tol=1e-6)
    assert tl.n_cores == LAPTOP4.n_cores
    assert tl.wall == approx_wall(r.makespan_cycles)
    np.testing.assert_allclose(tl.busy_per_core(), r.core_busy_cycles,
                               rtol=1e-9, atol=1e-6)
    assert tl.measured_pg() == approx_wall(r.potential_gain)
