"""Unit tests for the exporters: JSONL span logs and Chrome trace_event."""

import json

import pytest

from repro.observability.export import (
    SPAN_PID,
    TIMELINE_PID,
    chrome_trace,
    spans_to_jsonl,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.observability.spans import Span
from repro.observability.timeline import TimelineRecorder


def _spans():
    return [
        Span(name="inspect/hdagg", t0=1.0, t1=3.0, tid=11, attrs={"n": 4}),
        Span(name="inspect/lbp", t0=1.5, t1=2.5, tid=11, parent=0, depth=1),
        Span(name="execute/partition[0,1]", t0=3.0, t1=4.0, tid=22),
    ]


def _timeline():
    rec = TimelineRecorder()
    rec.open(2)
    rec.wall_t0, rec.wall_t1 = 0.0, 4.0
    rec.record(0, "busy", 0.0, 3.0, vertex=1, level=0)
    rec.record(1, "busy", 0.0, 1.0, vertex=2, level=0)
    rec.record(1, "p2p_wait", 1.0, 2.0, vertex=3, dependence=1)
    return rec.finalize()


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def test_spans_to_jsonl_one_object_per_line():
    text = spans_to_jsonl(_spans())
    lines = text.splitlines()
    assert len(lines) == 3
    objs = [json.loads(line) for line in lines]
    assert objs[0]["name"] == "inspect/hdagg"
    assert objs[0]["attrs"] == {"n": 4}
    assert objs[1]["parent"] == 0 and objs[1]["depth"] == 1
    assert spans_to_jsonl([]) == ""


def test_write_spans_jsonl_roundtrip(tmp_path):
    path = tmp_path / "spans.jsonl"
    write_spans_jsonl(_spans(), path)
    objs = [json.loads(line) for line in path.read_text().splitlines()]
    assert [o["name"] for o in objs] == [s.name for s in _spans()]


# ----------------------------------------------------------------------
# trace_event
# ----------------------------------------------------------------------
def test_chrome_trace_spans_become_complete_events():
    doc = chrome_trace(_spans(), None, time_unit="s", label="t")
    events = doc["traceEvents"]
    x = [e for e in events if e["ph"] == "X"]
    assert len(x) == 3
    # timestamps rebased to the earliest span and scaled to microseconds
    first = next(e for e in x if e["name"] == "inspect/hdagg")
    assert first["ts"] == 0.0
    assert first["dur"] == pytest.approx(2.0 * 1e6)
    assert first["pid"] == SPAN_PID
    assert first["args"] == {"n": 4}
    # the two distinct tids map to two distinct rows
    assert len({e["tid"] for e in x}) == 2


def test_chrome_trace_metadata_names_processes_and_threads():
    doc = chrome_trace(_spans(), _timeline(), time_unit="s", label="mesh")
    meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    names = {(e["pid"], e.get("tid")): e["args"]["name"] for e in meta
             if e["name"] == "process_name" or e["name"] == "thread_name"}
    assert names[(SPAN_PID, None)] == "mesh: spans"
    assert "per-core timeline" in names[(TIMELINE_PID, None)]
    assert names[(TIMELINE_PID, 0)] == "core 0"
    assert names[(TIMELINE_PID, 1)] == "core 1"


def test_chrome_trace_timeline_rows_one_per_core_with_colors():
    tl = _timeline()
    doc = chrome_trace(None, tl, time_unit="cycles", label="t")
    x = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert all(e["pid"] == TIMELINE_PID for e in x)
    # every segment (including derived idle) exported, cycles scale 1:1
    assert len(x) == sum(len(segs) for segs in tl.cores.values())
    busy0 = next(e for e in x if e["tid"] == 0 and e["name"] == "busy")
    assert busy0["ts"] == 0.0 and busy0["dur"] == 3.0
    assert busy0["cname"] == "thread_state_running"
    assert busy0["args"] == {"vertex": 1, "level": 0}
    wait = next(e for e in x if e["name"] == "p2p_wait")
    assert wait["cname"] == "thread_state_iowait"
    assert wait["args"] == {"vertex": 3, "dependence": 1}
    idle = next(e for e in x if e["name"] == "idle")
    assert idle["cname"] == "thread_state_sleeping"
    assert "args" not in idle


def test_chrome_trace_rejects_unknown_time_unit():
    with pytest.raises(ValueError):
        chrome_trace(_spans(), None, time_unit="ms")


def test_write_chrome_trace_is_loadable_json(tmp_path):
    path = tmp_path / "trace.json"
    write_chrome_trace(path, _spans(), _timeline(), time_unit="s", label="t")
    doc = json.loads(path.read_text())
    assert "traceEvents" in doc
    assert doc["displayTimeUnit"] == "ms"
    assert any(e["ph"] == "X" for e in doc["traceEvents"])
