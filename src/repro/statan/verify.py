"""Static dataflow verification of pass pipelines (the ``SP0xx`` rules).

:func:`verify_pipeline` analyses a :class:`~repro.passes.base.PassGroup`
**without executing anything**: it walks the declared contracts,
propagating artifact availability and invariant state exactly the way
the executor would propagate real values, and rejects ill-formed
pipelines with structured diagnostics.  Rules:

======  ==============================================================
SP001   a pass requires an artifact nothing before it provides
SP002   a pass requires an invariant that is not established/assumed
SP003   a pass's product is never consumed and is not a group output
SP004   a pass binds a backend stage (by sharing its name) that lacks
        its reference/numpy tiers
SP005   two producers for one artifact (or a pass shadowing an input)
SP006   a declared group output is never produced
SP007   a required invariant was explicitly invalidated upstream
SP008   a pass "preserves" an invariant that is not even held (warning)
======  ==============================================================

A group is *accepted* when no error-severity diagnostic is emitted
(``SP008`` is a warning).  CI verifies every registered group at import
cost only — this is how a recombined pipeline (new scheduler wired from
existing passes) fails the build before it can produce a wrong schedule.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..passes.base import Pass, PassGroup
from .diagnostics import Diagnostic

__all__ = ["verify_pipeline", "verify_registered_groups", "assert_valid"]


def _diag(
    group: PassGroup,
    p: Optional[Pass],
    rule: str,
    message: str,
    hint: str,
    severity: str = "error",
) -> Diagnostic:
    return Diagnostic(
        rule=rule,
        message=message,
        severity=severity,
        group=group.name,
        pass_name=None if p is None else p.name,
        hint=hint,
    )


def _check_backend_binding(group: PassGroup, p: Pass) -> List[Diagnostic]:
    """SP004: a pass named after a backend stage needs that stage's oracle tiers."""
    from ..core.backends import STAGES, registered_tiers

    if p.name not in STAGES:
        return []
    tiers = registered_tiers(p.name)
    return [
        _diag(
            group,
            p,
            "SP004",
            f"backend stage {p.name!r} lacks the mandatory {required!r} tier",
            f"every registry stage needs a {required!r} loader "
            "(the differential oracle discipline)",
        )
        for required in ("reference", "numpy")
        if required not in tiers
    ]


def verify_pipeline(group: PassGroup) -> List[Diagnostic]:
    """Dataflow-verify one pass group; returns structured diagnostics.

    An empty list (or warnings only) means the pipeline is well-formed:
    every required artifact has exactly one provider ordered before its
    consumer, invariants needed are held where needed, nothing dead,
    every output produced, every backend binding registered.
    """
    diags: List[Diagnostic] = []

    #: artifact -> provider ("<inputs>" or a pass name)
    provider: Dict[str, str] = {a: "<inputs>" for a in group.inputs}
    #: invariant -> holder; removed when invalidated
    held: Dict[str, str] = {inv: "<assumes>" for inv in group.assumes}
    #: invariant -> the pass that last invalidated it
    invalidated_by: Dict[str, str] = {}
    #: artifact -> index of the last pass that consumed it
    consumed: Dict[str, bool] = {}
    produced_by_pass: List[Tuple[Pass, str]] = []

    for p in group.passes:
        for a in p.contract.requires:
            if a in provider:
                consumed[a] = True
            else:
                later = [
                    q.name
                    for q in group.passes
                    if a in q.contract.produces and q is not p
                ]
                hint = (
                    f"move pass {later[0]!r} (which produces it) before {p.name!r}"
                    if later
                    else f"add {a!r} to the group inputs or a producing pass before {p.name!r}"
                )
                diags.append(
                    _diag(group, p, "SP001", f"requires artifact {a!r} which is not available", hint)
                )
        for inv in p.contract.requires_invariants:
            if inv in held:
                continue
            if inv in invalidated_by:
                diags.append(
                    _diag(
                        group,
                        p,
                        "SP007",
                        f"requires invariant {inv!r} after pass "
                        f"{invalidated_by[inv]!r} invalidated it",
                        f"re-establish {inv!r} between {invalidated_by[inv]!r} "
                        f"and {p.name!r}, or reorder the passes",
                    )
                )
            else:
                diags.append(
                    _diag(
                        group,
                        p,
                        "SP002",
                        f"requires invariant {inv!r} which is neither assumed nor established",
                        f"add {inv!r} to the group assumes or have an earlier pass establish it",
                    )
                )
        for inv in p.contract.preserves:
            if inv not in held:
                diags.append(
                    _diag(
                        group,
                        p,
                        "SP008",
                        f"claims to preserve invariant {inv!r} which is not held here",
                        "drop the vacuous preserves entry or establish the invariant upstream",
                        severity="warning",
                    )
                )
        diags.extend(_check_backend_binding(group, p))
        for a in p.contract.produces:
            if a in provider:
                diags.append(
                    _diag(
                        group,
                        p,
                        "SP005",
                        f"produces artifact {a!r} already provided by {provider[a]!r}",
                        "rename the product or remove the redundant producer",
                    )
                )
            provider[a] = p.name
            produced_by_pass.append((p, a))
        for inv in p.contract.invalidates:
            if inv in held:
                del held[inv]
            invalidated_by[inv] = p.name
        for inv in p.contract.establishes:
            held[inv] = p.name
            invalidated_by.pop(inv, None)

    for p, a in produced_by_pass:
        if a not in consumed and a not in group.outputs:
            diags.append(
                _diag(
                    group,
                    p,
                    "SP003",
                    f"product {a!r} is never consumed and is not a group output",
                    f"consume {a!r} downstream, add it to outputs, or stop producing it",
                )
            )
    for out in group.outputs:
        if out not in provider:
            diags.append(
                _diag(
                    group,
                    None,
                    "SP006",
                    f"group output {out!r} is never produced",
                    f"add a pass producing {out!r} or remove it from outputs",
                )
            )
    return diags


def verify_registered_groups() -> Dict[str, List[Diagnostic]]:
    """Verify every group in :data:`repro.passes.registry.PASS_GROUPS`."""
    from ..passes.registry import PASS_GROUPS

    return {name: verify_pipeline(group) for name, group in sorted(PASS_GROUPS.items())}


def assert_valid(group: PassGroup) -> None:
    """Raise ``ValueError`` with rendered diagnostics if ``group`` is rejected."""
    errors = [d for d in verify_pipeline(group) if d.severity == "error"]
    if errors:
        detail = "\n".join(d.render() for d in errors)
        raise ValueError(f"pass group {group.name!r} is ill-formed:\n{detail}")
