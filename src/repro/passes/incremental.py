"""Which passes a change of inputs reaches, read off the declared dataflow.

When some artifacts of a pass group change, exactly the passes that
require a changed artifact — directly, or through the products of another
such pass — would compute something new; every other pass would produce
what it produced before.  :func:`affected_passes` reads that closure off
the contracts alone.  :class:`~repro.core.inspector.HDaggInspector` runs
the passes a change of ``(p, epsilon)`` cannot reach once per DAG, and
:func:`~repro.core.incremental.repairable` accepts a group whose passes
reached by a pattern change (``DAG`` and ``Cost``) end in the three the
incremental repair splices: ``coarsen``, ``lbp`` and ``expand``.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from .base import PassGroup

__all__ = ["affected_passes"]


def affected_passes(group: PassGroup, dirty: Iterable[str]) -> Tuple[str, ...]:
    """Names of the passes of ``group`` that a change of ``dirty`` reaches.

    ``dirty`` names the artifacts whose values changed.  A pass is affected
    when any artifact it requires is dirty; its products then turn dirty
    in turn.  The names come in pipeline order.
    """
    dirty_set = set(dirty)
    affected = []
    for p in group.passes:
        if dirty_set.intersection(p.contract.requires):
            affected.append(p.name)
            dirty_set.update(p.contract.produces)
    return tuple(affected)
