"""Ambient observability state: one process-global enable switch.

Inspectors are invoked through the fixed registry signature
``SCHEDULERS[name](g, cost, p, epsilon, **options)`` — there is no clean place to
thread a tracer argument through, so instrumentation reads an *ambient*
state instead, exactly like :mod:`repro.resilience.faults` arms its plan.

The contract instrumented code follows:

* hot paths (per vertex, per merge candidate) guard on ``STATE.enabled`` —
  a single attribute read on a module-global slot object — or take an
  explicit ``timeline=``/``trace=`` argument the caller controls;
* stage-granularity paths may call :func:`current_tracer`, which returns
  :data:`~repro.observability.spans.NULL_TRACER` when disabled (its
  ``span()`` is a shared no-op);
* metric writes are always guarded: ``if STATE.enabled:
  STATE.registry.counter(...).inc()``.

``observed()`` is the canonical entry point: it enables tracing for a
block and restores the previous state (including the fault-observer hook
it installs into :mod:`repro.resilience.faults`) on exit.  Disabled is the
default and the dormant path changes nothing — RunRecords and CLI output
stay byte-identical, which ``benchmarks/smoke_observability.py`` gates.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Tuple, Union

from ..resilience import faults as _faults
from .metrics import MetricsRegistry
from .spans import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "STATE",
    "ObservabilityState",
    "enable",
    "disable",
    "is_enabled",
    "current_tracer",
    "current_registry",
    "observed",
]


class ObservabilityState:
    """The ambient switch plus the active tracer and registry."""

    __slots__ = ("enabled", "tracer", "registry")

    def __init__(self) -> None:
        self.enabled: bool = False
        self.tracer: Union[Tracer, NullTracer] = NULL_TRACER
        self.registry: Optional[MetricsRegistry] = None


#: The process-global state instrumented code reads.
STATE = ObservabilityState()


def is_enabled() -> bool:
    return STATE.enabled


def current_tracer() -> Union[Tracer, NullTracer]:
    """The active tracer, or the shared no-op tracer when disabled."""
    return STATE.tracer if STATE.enabled else NULL_TRACER


def current_registry() -> Optional[MetricsRegistry]:
    """The active registry, or ``None`` when disabled."""
    return STATE.registry if STATE.enabled else None


def _fault_observer(site: str, action: str, label: Optional[str]) -> None:
    """Counts every fired fault into the active registry."""
    if STATE.enabled and STATE.registry is not None:
        STATE.registry.counter("resilience.faults_fired").inc()
        STATE.registry.counter(f"resilience.faults_fired.{site}").inc()


def enable(
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
) -> Tuple[Tracer, MetricsRegistry]:
    """Turn the ambient state on; returns the (tracer, registry) in effect.

    Re-enabling while already enabled swaps in the new objects (callers
    that need strict scoping should use :func:`observed`).
    """
    STATE.tracer = tracer if tracer is not None else Tracer()
    STATE.registry = registry if registry is not None else MetricsRegistry()
    STATE.enabled = True
    _faults.set_fault_observer(_fault_observer)
    return STATE.tracer, STATE.registry


def disable() -> None:
    """Turn the ambient state off and drop the tracer/registry references."""
    STATE.enabled = False
    STATE.tracer = NULL_TRACER
    STATE.registry = None
    _faults.set_fault_observer(None)


@contextmanager
def observed(
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[Tuple[Tracer, MetricsRegistry]]:
    """Enable observability for one block, restoring the prior state after.

    >>> from repro.observability import observed
    >>> with observed() as (tracer, registry):
    ...     pass  # run instrumented work; inspect tracer.spans after
    """
    prev = (STATE.enabled, STATE.tracer, STATE.registry)
    pair = enable(tracer, registry)
    try:
        yield pair
    finally:
        STATE.enabled, STATE.tracer, STATE.registry = prev
        if not STATE.enabled:
            _faults.set_fault_observer(None)
