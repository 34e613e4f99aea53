"""Exporters: JSONL span logs and Chrome ``trace_event`` timelines.

Two output formats, both plain JSON so nothing new is installed:

* **JSONL span log** — one :meth:`Span.as_dict` object per line; greppable,
  diffable, streamable.
* **Chrome trace_event** — the ``{"traceEvents": [...]}`` JSON object that
  ``chrome://tracing`` and https://ui.perfetto.dev load directly.  Spans
  become complete (``"ph": "X"``) events on their recording thread;
  timeline segments become complete events on one synthetic "process" per
  run with one row (``tid``) per core, so the per-core busy/wait/idle
  structure reads as a classic execution timeline.

Timestamps: trace_event wants microseconds.  Wall-clock sources are scaled
by 1e6; the simulator's model timelines are in cycles and exported 1 cycle
= 1 µs (``time_unit="cycles"``), which keeps relative proportions exact.
"""

from __future__ import annotations

import json
from os import PathLike
from typing import Iterable, List, Optional, Sequence, Union

from .spans import Span
from .timeline import CoreTimeline

__all__ = [
    "spans_to_jsonl",
    "write_spans_jsonl",
    "chrome_trace",
    "write_chrome_trace",
]

#: pid used for span (flame chart) events in the trace_event output.
SPAN_PID = 1
#: pid used for per-core timeline rows.
TIMELINE_PID = 2

#: segment kind -> color name understood by the Chrome trace viewer.
_KIND_COLORS = {
    "busy": "thread_state_running",
    "barrier_wait": "thread_state_uninterruptible",
    "p2p_wait": "thread_state_iowait",
    "idle": "thread_state_sleeping",
}


def spans_to_jsonl(spans: Iterable[Span]) -> str:
    """One JSON object per line; order is the tracer's record order."""
    return "\n".join(json.dumps(s.as_dict(), sort_keys=True) for s in spans)


def write_spans_jsonl(spans: Iterable[Span], path: Union[str, PathLike]) -> None:
    """Write :func:`spans_to_jsonl` to ``path``, newline-terminated when non-empty."""
    text = spans_to_jsonl(spans)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        if text:
            fh.write("\n")


def _scale(time_unit: str) -> float:
    # trace_event ts/dur are microseconds; cycles map 1:1 so model
    # timelines keep exact integer proportions
    return 1e6 if time_unit == "s" else 1.0


def chrome_trace(
    spans: Optional[Sequence[Span]] = None,
    timeline: Optional[CoreTimeline] = None,
    *,
    time_unit: str = "s",
    label: str = "hdagg",
) -> dict:
    """Build a ``trace_event`` document from spans and/or a core timeline.

    ``time_unit`` is ``"s"`` (wall clock, scaled to µs) or ``"cycles"``
    (model time, exported 1 cycle = 1 µs).  The result is JSON-ready.
    """
    if time_unit not in ("s", "cycles"):
        raise ValueError(f"unknown time_unit {time_unit!r} (use 's' or 'cycles')")
    scale = _scale(time_unit)
    events: List[dict] = []
    events.append(
        {"ph": "M", "pid": SPAN_PID, "name": "process_name",
         "args": {"name": f"{label}: spans"}}
    )
    if spans:
        t_base = min(s.t0 for s in spans)
        tids = sorted({s.tid for s in spans})
        tid_row = {tid: i for i, tid in enumerate(tids)}
        for tid, row in tid_row.items():
            events.append(
                {"ph": "M", "pid": SPAN_PID, "tid": row, "name": "thread_name",
                 "args": {"name": f"thread {tid}"}}
            )
        for s in spans:
            ev = {
                "ph": "X",
                "pid": SPAN_PID,
                "tid": tid_row[s.tid],
                "name": s.name,
                "ts": (s.t0 - t_base) * scale,
                "dur": s.duration * scale,
            }
            if s.attrs:
                ev["args"] = dict(s.attrs)
            events.append(ev)
    if timeline is not None:
        events.append(
            {"ph": "M", "pid": TIMELINE_PID, "name": "process_name",
             "args": {"name": f"{label}: per-core timeline ({time_unit})"}}
        )
        for core in sorted(timeline.cores):
            events.append(
                {"ph": "M", "pid": TIMELINE_PID, "tid": core, "name": "thread_name",
                 "args": {"name": f"core {core}"}}
            )
            for seg in timeline.cores[core]:
                ev = {
                    "ph": "X",
                    "pid": TIMELINE_PID,
                    "tid": core,
                    "name": seg.kind,
                    "cname": _KIND_COLORS.get(seg.kind, "generic_work"),
                    "ts": (seg.t0 - timeline.wall_t0) * scale,
                    "dur": seg.duration * scale,
                }
                args = {}
                if seg.vertex >= 0:
                    args["vertex"] = seg.vertex
                if seg.dependence >= 0:
                    args["dependence"] = seg.dependence
                if seg.level >= 0:
                    args["level"] = seg.level
                if args:
                    ev["args"] = args
                events.append(ev)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: Union[str, PathLike],
    spans: Optional[Sequence[Span]] = None,
    timeline: Optional[CoreTimeline] = None,
    *,
    time_unit: str = "s",
    label: str = "hdagg",
) -> None:
    """Write a trace_event JSON file that Perfetto / chrome://tracing loads."""
    doc = chrome_trace(spans, timeline, time_unit=time_unit, label=label)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
