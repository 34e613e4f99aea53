"""Unit tests for the span tracer: nesting, threading, the null path."""

import threading

import pytest

from repro.observability.spans import NULL_TRACER, NullTracer, Span, Tracer


class FakeClock:
    """Deterministic monotonic clock: each read advances by ``step``."""

    def __init__(self, step=1.0):
        self.t = 0.0
        self.step = step

    def __call__(self):
        self.t += self.step
        return self.t


def test_single_span_records_interval_and_attrs():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("inspect/lbp", epsilon=0.5):
        pass
    (s,) = tracer.spans
    assert s.name == "inspect/lbp"
    assert s.t1 > s.t0
    assert s.duration == s.t1 - s.t0
    assert s.parent == -1 and s.depth == 0
    assert s.attrs == {"epsilon": 0.5}
    assert s.tid == threading.get_ident()


def test_nested_spans_link_parent_and_depth():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("outer"):
        with tracer.span("mid"):
            with tracer.span("inner"):
                pass
    by_name = {s.name: s for s in tracer.spans}
    spans = tracer.spans
    assert by_name["outer"].depth == 0 and by_name["outer"].parent == -1
    assert by_name["mid"].depth == 1
    assert by_name["inner"].depth == 2
    # parent indices refer back within the same thread's span list
    assert spans[by_name["mid"].parent].name == "outer"
    assert spans[by_name["inner"].parent].name == "mid"


def test_nested_span_contained_in_parent_interval():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["outer"].t0 <= by_name["inner"].t0
    assert by_name["inner"].t1 <= by_name["outer"].t1


def test_sibling_spans_share_parent():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("outer"):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["a"].parent == by_name["b"].parent
    assert by_name["a"].t1 <= by_name["b"].t0


def test_instant_records_zero_duration_marker():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("outer"):
        tracer.instant("cell", matrix="mesh2d-s")
    markers = [s for s in tracer.spans if s.name == "cell"]
    (m,) = markers
    assert m.duration == 0.0
    assert m.depth == 1
    assert m.attrs == {"matrix": "mesh2d-s"}


def test_spans_named_prefix_filter():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("inspect/lbp"):
        pass
    with tracer.span("execute/wavefront[0]"):
        pass
    assert [s.name for s in tracer.spans_named("inspect/")] == ["inspect/lbp"]
    assert len(tracer.spans_named("execute/")) == 1
    assert tracer.spans_named("nope/") == []


def test_spans_from_worker_threads_are_merged():
    tracer = Tracer()

    def worker(i):
        with tracer.span(f"execute/partition[0,{i}]", core=i):
            pass

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    spans = tracer.spans
    assert len(spans) == 4  # survives OS reuse of thread idents
    assert {s.attrs["core"] for s in spans} == {0, 1, 2, 3}
    # each thread's span is top-level within its own list
    assert all(s.parent == -1 and s.depth == 0 for s in spans)


def test_open_span_not_listed_until_closed():
    tracer = Tracer(clock=FakeClock())
    cm = tracer.span("open")
    cm.__enter__()
    assert len(tracer) == 0  # placeholder slot, not a closed span
    cm.__exit__(None, None, None)
    assert len(tracer) == 1


def test_span_closes_on_exception():
    tracer = Tracer(clock=FakeClock())
    with pytest.raises(RuntimeError):
        with tracer.span("fails"):
            raise RuntimeError("boom")
    (s,) = tracer.spans
    assert s.name == "fails" and s.t1 >= s.t0


def test_clear_drops_all_spans():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("a"):
        pass
    tracer.clear()
    assert len(tracer) == 0
    with tracer.span("b"):
        pass
    assert [s.name for s in tracer.spans] == ["b"]


def test_as_dict_roundtrips_fields():
    s = Span(name="x", t0=1.0, t1=2.5, tid=7, parent=3, depth=1, attrs={"p": 8})
    d = s.as_dict()
    assert d == {"name": "x", "t0": 1.0, "t1": 2.5, "tid": 7,
                 "parent": 3, "depth": 1, "attrs": {"p": 8}}
    # attrs key omitted when empty
    assert "attrs" not in Span(name="y", t0=0.0, t1=0.0, tid=1).as_dict()


def test_null_tracer_is_inert_and_shared():
    assert isinstance(NULL_TRACER, NullTracer)
    assert NULL_TRACER.enabled is False
    cm1 = NULL_TRACER.span("anything", k=1)
    cm2 = NULL_TRACER.span("else")
    assert cm1 is cm2  # one shared no-op context manager, nothing allocated
    with cm1:
        NULL_TRACER.instant("marker")
    assert NULL_TRACER.spans == []
    assert NULL_TRACER.spans_named("any") == []
    assert len(NULL_TRACER) == 0
    NULL_TRACER.clear()  # no-op, must not raise
