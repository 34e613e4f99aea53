"""Observability: span tracing, per-core timelines, metrics registry.

The subsystem behind ``hdagg-bench trace`` (see DESIGN.md §10):

* :mod:`~repro.observability.spans` — nested span tracer;
* :mod:`~repro.observability.metrics` — counters / gauges / histograms;
* :mod:`~repro.observability.timeline` — per-core busy/wait/idle segments
  from the core stepper (wall clock) and the simulator (model cycles);
* :mod:`~repro.observability.export` — JSONL span logs and Chrome
  ``trace_event`` files (Perfetto-loadable);
* :mod:`~repro.observability.reports` — utilization, sync-cost, and
  trace-vs-model summaries;
* :mod:`~repro.observability.state` — the ambient enable switch
  (disabled by default; dormant cost is one attribute read per guarded
  site, gated by ``benchmarks/smoke_observability.py``);
* :mod:`~repro.observability.telemetry` — the closed metric catalog
  every registered metric name must belong to (statan rule L009 checks
  call sites; :func:`catalog_violations` checks a live registry).
"""

from .export import chrome_trace, spans_to_jsonl, write_chrome_trace, write_spans_jsonl
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .reports import (
    imbalance_comparison,
    imbalance_report,
    sync_breakdown,
    sync_report,
    utilization_report,
    utilization_rows,
)
from .spans import NULL_TRACER, NullTracer, Span, Tracer
from .state import (
    STATE,
    current_registry,
    current_tracer,
    disable,
    enable,
    is_enabled,
    observed,
)
from .telemetry import catalog_violations, metric_catalog
from .timeline import SEGMENT_KINDS, CoreTimeline, Segment, TimelineRecorder

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Segment",
    "TimelineRecorder",
    "CoreTimeline",
    "SEGMENT_KINDS",
    "spans_to_jsonl",
    "write_spans_jsonl",
    "chrome_trace",
    "write_chrome_trace",
    "utilization_rows",
    "utilization_report",
    "sync_breakdown",
    "sync_report",
    "imbalance_comparison",
    "imbalance_report",
    "STATE",
    "enable",
    "disable",
    "is_enabled",
    "observed",
    "current_tracer",
    "current_registry",
    "metric_catalog",
    "catalog_violations",
]
