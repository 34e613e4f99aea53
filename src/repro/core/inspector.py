"""Cached inspector: reuse the expensive analysis across schedule requests.

The inspector-executor pattern splits cost into analyse-once / run-many.
Within the analysis itself there is a second split this class exploits:
the transitive reduction depends only on the DAG, the subtree grouping and
the coarsened DAG also on the core count (through the group cap), and only
the LBP coarsening and the expansion on the balance threshold.
``HDaggInspector`` keeps the artifacts of each tier and hands them to the
one scheduler driver as reuse, so sweeping ``p`` or ``epsilon``
(autotuning, the ablation benchmarks, a solver picking its thread count at
run time) pays the two-hop reduction once and the grouping once per core
count.  Every schedule still comes out of the driver: same passes, same
contracts, backend and ``stage_seconds`` meta as :func:`repro.core.hdagg.hdagg`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..graph.dag import DAG
from ..passes import (
    PassGroup,
    build_hdagg_group,
    plan_repair,
    run_group,
    run_scheduler,
    seed_context,
)
from .pgp import DEFAULT_EPSILON
from .schedule import Schedule

__all__ = ["HDaggInspector"]


def _products(group: PassGroup, passes: Tuple[str, ...]) -> Tuple[str, ...]:
    """Artifacts produced by the named passes of ``group``."""
    return tuple(a for p in group.passes if p.name in passes for a in p.contract.produces)


class HDaggInspector:
    """Analyse a DAG once; emit HDagg schedules for many ``(p, epsilon)``.

    Parameters mirror :func:`repro.core.hdagg.hdagg`; the backend spec is
    read once, at construction.  The passes that depend on the DAG alone
    run at construction; the passes that depend on the core count run once
    per distinct cap (one per requested ``p`` under the default fractional
    cap, one in total when uncapped); the rest run per request.
    """

    def __init__(
        self,
        g: DAG,
        cost: np.ndarray,
        *,
        transitive_reduce: bool = True,
        group_cost_cap_fraction: float | None = 0.25,
    ) -> None:
        self.g = g
        self.group_cost_cap_fraction = group_cost_cap_fraction
        self._transitive_reduce = transitive_reduce
        group = build_hdagg_group(transitive_reduce=transitive_reduce)
        ctx = seed_context(group, g, cost, group_cost_cap_fraction=group_cost_cap_fraction)
        self.cost = ctx["Cost"]
        self._spec = ctx.spec
        dag_only = plan_repair(group, ("Cost", "Cores", "Epsilon")).replay
        run_group(group, ctx, dag_only)
        self._dag_artifacts = {a: ctx[a] for a in _products(group, dag_only)}
        #: artifacts of the passes independent of epsilon (given p)
        self._per_cores = _products(group, plan_repair(group, ("Epsilon",)).replay)
        self._groupings: Dict[Optional[int], Dict[str, Any]] = {}
        self._schedules: Dict[Tuple[int, float, bool], Schedule] = {}

    # ------------------------------------------------------------------
    @property
    def reduced_dag(self) -> DAG:
        """The cached two-hop-reduced DAG (step 1's input)."""
        return self._dag_artifacts["ReducedDAG"]

    def schedule(
        self,
        p: int,
        epsilon: float = DEFAULT_EPSILON,
        *,
        bin_pack: bool = True,
    ) -> Schedule:
        """HDagg schedule for ``p`` cores at threshold ``epsilon`` (cached)."""
        key = (p, epsilon, bin_pack)
        if key in self._schedules:
            return self._schedules[key]
        # the group cap depends on p only when a cap fraction is set
        cap_key = p if self.group_cost_cap_fraction is not None else None
        group = build_hdagg_group(transitive_reduce=self._transitive_reduce, bin_pack=bin_pack)
        ctx = run_scheduler(
            group, self.g, self.cost, p, epsilon,
            backend=self._spec,
            reuse={**self._dag_artifacts, **self._groupings.get(cap_key, {})},
            group_cost_cap_fraction=self.group_cost_cap_fraction,
        )
        self._groupings.setdefault(
            cap_key, {a: ctx[a] for a in self._per_cores if ctx.has(a)}
        )
        s: Schedule = ctx["Schedule"]
        self._schedules[key] = s
        return s

    def cache_info(self) -> dict:
        """Sizes of the internal caches (observability for tests/tools)."""
        return {
            "groupings": len(self._groupings),
            "schedules": len(self._schedules),
            "reduced_edges": self.reduced_dag.n_edges,
        }
