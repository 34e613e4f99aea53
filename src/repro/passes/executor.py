"""The one scheduler driver.

Every scheduler — HDagg, its ablation variants, and the baselines — runs
through :func:`run_scheduler`: it validates the group's options, seeds the
context with exactly the inputs the group declares, opens the
``inspect/<scheduler>`` span, counts ``inspector.runs.<scheduler>``, runs
the passes, and stamps the per-pass ``stage_seconds`` onto the schedule.

:func:`run_group` wraps each pass with the same instrumentation, keyed by
the pass name: a :class:`~repro.runtime.perf.StageTimer` stage, an
``inspect/<pass>`` span when the ambient observability state is enabled,
and an ``inspector.stage`` fault point.  It enforces the *runtime* half
of each contract (required artifacts present, returned products exactly
as declared); the *static* half — artifact dataflow over the whole list,
invariant propagation, backend-tier coverage — is
:func:`repro.statan.verify_pipeline`'s job and runs without executing
anything.

A pass whose products are all in the context already is not re-run:
seeding the context with cached artifacts (``reuse=``) is how
:class:`~repro.core.inspector.HDaggInspector` reuses its analysis.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Collection, ContextManager, Dict, Mapping, Optional, Union

import numpy as np

from ..observability.state import STATE as _OBS_STATE
from ..resilience.faults import fault_point
from .base import Pass, PassContext, PassGroup

__all__ = ["PipelineExecutionError", "run_group", "seed_context", "run_scheduler"]

#: shared no-op context manager for the disabled-observability path
_NULL_CM: ContextManager[None] = nullcontext()


class PipelineExecutionError(RuntimeError):
    """A pass violated its contract at runtime.

    Static verification catches ill-formed *pipelines*; this error
    catches a pass whose implementation drifted from its own declaration
    (required artifact absent at run time, products not matching
    ``produces``).
    """

    def __init__(self, group: str, pass_name: str, message: str) -> None:
        super().__init__(f"group {group!r}, pass {pass_name!r}: {message}")
        self.group = group
        self.pass_name = pass_name


def _span(name: str, attrs: Mapping[str, Any]) -> ContextManager[Any]:
    """An ``inspect/<name>`` span when observability is on, else a no-op."""
    if not _OBS_STATE.enabled:
        return _NULL_CM
    return _OBS_STATE.tracer.span(f"inspect/{name}", **attrs)


def _pass_span(p: Pass, ctx: PassContext) -> ContextManager[Any]:
    if not _OBS_STATE.enabled:
        return _NULL_CM
    return _span(p.name, p.span_attrs(ctx) if p.span_attrs is not None else {})


def run_group(
    group: PassGroup, ctx: PassContext, passes: Optional[Collection[str]] = None
) -> PassContext:
    """Execute the passes of ``group`` in order over ``ctx``.

    ``passes`` restricts the run to the named passes (still in group
    order); a pass whose products are all in ``ctx`` already is skipped.
    Options the context leaves unset take the group's defaults.  Returns
    the same context with all products stored.  Raises
    :class:`PipelineExecutionError` when a pass's runtime behaviour
    contradicts its contract — which, for a pipeline accepted by
    :func:`repro.statan.verify_pipeline`, indicates an implementation bug
    rather than a wiring bug.
    """
    for option, default in group.options:
        ctx.options.setdefault(option, default)
    for p in group.passes:
        if passes is not None and p.name not in passes:
            continue
        if all(ctx.has(a) for a in p.contract.produces):
            continue
        missing = [a for a in p.contract.requires if not ctx.has(a)]
        if missing:
            raise PipelineExecutionError(
                group.name,
                p.name,
                f"required artifacts missing at run time: {missing} "
                f"(run repro.statan.verify_pipeline to catch this statically)",
            )
        with ctx.timer.stage(p.name), _pass_span(p, ctx):
            fault_point("inspector.stage", label=p.name)
            products = p.run(ctx)
        declared = set(p.contract.produces)
        got = set(products)
        if got != declared:
            raise PipelineExecutionError(
                group.name,
                p.name,
                f"products {sorted(got)} do not match declared produces {sorted(declared)}",
            )
        for name, value in products.items():
            ctx.put(name, value)
    if passes is None:
        for out in group.outputs:
            if not ctx.has(out):
                raise PipelineExecutionError(
                    group.name, "<outputs>", f"group output {out!r} was never produced"
                )
    return ctx


def seed_context(
    group: PassGroup,
    g: Any,
    cost: Any,
    p: Optional[int] = None,
    epsilon: Optional[float] = None,
    *,
    backend: Any = None,
    **options: Any,
) -> PassContext:
    """A context for ``group`` holding exactly the inputs it declares.

    ``cost`` is coerced to float64 and checked against the DAG size;
    ``epsilon`` defaults to the paper's threshold; ``backend`` (spec,
    grammar string, or ``None`` for the ambient default) is coerced only
    for groups that declare ``Backend``.  ``p`` is seeded when given.
    Options the group does not declare raise ``TypeError``.
    """
    accepted = sorted(name for name, _ in group.options)
    unknown = sorted(set(options) - set(accepted))
    if unknown:
        raise TypeError(
            f"scheduler {group.name!r} got unexpected options {unknown} "
            f"(accepts: {accepted})"
        )
    cost = np.asarray(cost, dtype=np.float64)
    if cost.shape[0] != g.n:
        raise ValueError(f"cost has length {cost.shape[0]}, expected {g.n}")
    offered: Dict[str, Any] = {"DAG": g, "Cost": cost, "Cores": p}
    if "Epsilon" in group.inputs:
        from ..core.pgp import DEFAULT_EPSILON

        offered["Epsilon"] = DEFAULT_EPSILON if epsilon is None else epsilon
    spec = None
    if "Backend" in group.inputs:
        from ..core.backends import BackendSpec

        spec = BackendSpec.coerce(backend)
        offered["Backend"] = spec.effective().describe()
    artifacts = {
        name: value
        for name, value in offered.items()
        if name in group.inputs and value is not None
    }
    return PassContext(artifacts, spec=spec, options=options)


def run_scheduler(
    group: Union[PassGroup, str],
    g: Any,
    cost: Any,
    p: Optional[int] = None,
    epsilon: Optional[float] = None,
    *,
    backend: Any = None,
    reuse: Optional[Mapping[str, Any]] = None,
    **options: Any,
) -> PassContext:
    """Run one scheduler end to end; returns the context (``ctx["Schedule"]``).

    ``group`` is a :class:`PassGroup` or a registered scheduler name.
    ``reuse`` pre-seeds cached artifacts; the passes that would produce
    them are skipped.  An empty DAG yields an empty schedule without
    running any pass.  The schedule's ``meta["stage_seconds"]`` holds the
    seconds of every pass that ran, keyed by pass name.
    """
    if isinstance(group, str):
        from .registry import get_pass_group

        group = get_pass_group(group)
    if p is None and "Cores" in group.inputs:
        raise TypeError(f"scheduler {group.name!r} requires the core count p")
    ctx = seed_context(group, g, cost, p, epsilon, backend=backend, **options)
    for name, value in (reuse or {}).items():
        ctx.put(name, value)
    attrs = {"n": int(g.n)} if p is None else {"n": int(g.n), "p": int(p)}
    with _span(group.name, attrs):
        if g.n == 0:
            from ..core.schedule import Schedule

            n_cores = p if p is not None and "Cores" in group.inputs else 1
            ctx.put(
                "Schedule",
                Schedule(n=0, levels=[], sync="barrier", algorithm=group.name, n_cores=n_cores),
            )
        else:
            run_group(group, ctx)
    if _OBS_STATE.enabled and _OBS_STATE.registry is not None:
        _OBS_STATE.registry.counter(f"inspector.runs.{group.name}").inc()
    # to_dict() drops non-JSON meta values, so timings never leak into
    # serialized schedules
    ctx["Schedule"].meta["stage_seconds"] = ctx.timer.as_dict()
    return ctx
