"""Span-based tracing: nested, monotonically timestamped execution spans.

A :class:`Tracer` records *spans* — named intervals with monotonic start
and end timestamps — organised into a per-thread nesting tree, exactly the
shape Chrome's ``trace_event`` format (and therefore Perfetto) renders as
a flame chart.  Span names follow a ``stage/substage[args]`` convention:
``inspect/transitive_reduction``, ``inspect/lbp``,
``execute/wavefront[3]``, ``execute/partition[3,1]``.

Nesting is tracked per thread (executor workers trace concurrently without
locks on the hot path: each thread appends to its own list and the tracer
merges on read).  Timestamps come from an injectable ``clock`` — the
default is :func:`time.perf_counter` — so tests can drive a deterministic
virtual clock and assert exact span trees.

The disabled path is :data:`NULL_TRACER`: ``span()`` hands back one shared
no-op context manager, ``instant()`` returns immediately, and nothing is
ever allocated — the zero-overhead-when-off guarantee the benchmark gate
(``benchmarks/smoke_observability.py``) enforces.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER"]


@dataclass
class Span:
    """One named interval of work.

    ``t0``/``t1`` are clock readings (seconds for the default clock);
    ``parent`` is the index of the enclosing span *within the same thread's
    span list* (-1 for top level), ``depth`` its nesting depth, and ``tid``
    the recording thread's ident.  ``attrs`` holds small JSON-safe
    key/values (core ids, level indices, vertex counts).
    """

    name: str
    t0: float
    t1: float
    tid: int
    parent: int = -1
    depth: int = 0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def as_dict(self) -> dict:
        """JSON-ready form (the JSONL exporter writes one of these per line)."""
        out = {
            "name": self.name,
            "t0": self.t0,
            "t1": self.t1,
            "tid": self.tid,
            "parent": self.parent,
            "depth": self.depth,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        return out


class _OpenSpan:
    """Context manager for one in-flight span (reused API, per-call object)."""

    __slots__ = ("_tracer", "_name", "_attrs", "_t0", "_parent", "_depth")

    def __init__(self, tracer: "Tracer", name: str, attrs: Optional[dict]) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_OpenSpan":
        local = self._tracer._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        self._parent = stack[-1] if stack else -1
        self._depth = len(stack)
        # reserve the slot *before* timing starts so children know their parent
        spans = self._tracer._spans_for_thread()
        stack.append(len(spans))
        spans.append(None)  # placeholder, filled on exit
        self._t0 = self._tracer.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        t1 = self._tracer.clock()
        local = self._tracer._local
        index = local.stack.pop()
        spans = self._tracer._spans_for_thread()
        spans[index] = Span(
            name=self._name,
            t0=self._t0,
            t1=t1,
            tid=threading.get_ident(),
            parent=self._parent,
            depth=self._depth,
            attrs=self._attrs or {},
        )


class _NullSpan:
    """The shared do-nothing context manager of the disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects nested spans from any number of threads.

    ``clock`` must be monotonic; tests may inject a fake.  ``enabled`` is
    True — instrumented code checks this single attribute (or the ambient
    state's flag) before doing any per-event work.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._local = threading.local()
        #: one span list per recording thread, kept by identity — thread
        #: idents are reused by the OS, so a dict keyed on them would drop
        #: a finished thread's spans when a later thread inherits its ident
        self._lists: List[List[Optional[Span]]] = []
        self._threads_lock = threading.Lock()

    def _spans_for_thread(self) -> List[Optional[Span]]:
        local = self._local
        spans = getattr(local, "spans", None)
        if spans is None:
            spans = local.spans = []
            with self._threads_lock:
                self._lists.append(spans)
        return spans

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs) -> _OpenSpan:
        """Open a nested span: ``with tracer.span("inspect/lbp"): ...``."""
        return _OpenSpan(self, name, attrs or None)

    def instant(self, name: str, **attrs) -> None:
        """Record a zero-duration marker span."""
        t = self.clock()
        spans = self._spans_for_thread()
        local = self._local
        stack = getattr(local, "stack", None) or []
        spans.append(
            Span(
                name=name,
                t0=t,
                t1=t,
                tid=threading.get_ident(),
                parent=stack[-1] if stack else -1,
                depth=len(stack),
                attrs=attrs,
            )
        )

    # ------------------------------------------------------------------
    @property
    def spans(self) -> List[Span]:
        """All *closed* spans, grouped by thread, in per-thread record order."""
        with self._threads_lock:
            lists = list(self._lists)
        return [s for spans in lists for s in spans if s is not None]

    def spans_named(self, prefix: str) -> List[Span]:
        """Closed spans whose name starts with ``prefix``, in record order."""
        return [s for s in self.spans if s.name.startswith(prefix)]

    def clear(self) -> None:
        """Drop all recorded spans (open spans in other threads are lost)."""
        with self._threads_lock:
            self._lists.clear()
        self._local = threading.local()

    def __len__(self) -> int:
        return len(self.spans)


class NullTracer:
    """Disabled tracer: every operation is a no-op returning shared objects."""

    enabled = False
    spans: List[Span] = []

    __slots__ = ()

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, name: str, **attrs) -> None:
        return None

    def spans_named(self, prefix: str) -> List[Span]:
        return []

    def clear(self) -> None:
        return None

    def __len__(self) -> int:
        return 0


#: The process-wide disabled tracer (never collects anything).
NULL_TRACER = NullTracer()
