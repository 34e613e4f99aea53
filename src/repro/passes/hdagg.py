"""The HDagg inspector as a pass group (Algorithm 1, stage per pass).

Each stage of the paper's Algorithm 1 is one :class:`~repro.passes.base.Pass`
named after the backend registry stage it binds:

==================== ============================ ==============================
pass                 consumes                     produces
==================== ============================ ==============================
transitive_reduction DAG                          ReducedDAG
aggregation          ReducedDAG, Cost, Cores      Grouping
coarsen              ReducedDAG, Grouping, Cost   CoarseDAG, GroupCost
lbp                  CoarseDAG, GroupCost, ...    CoarsenedWaves
expand               CoarsenedWaves, Grouping...  Schedule
==================== ============================ ==============================

:func:`build_hdagg_group` is the factory the ablation switches configure:
``transitive_reduce=False`` swaps the reduction for an identity variant
(same name, so the same timer window and fault site — only the contract
loses ``transitively-reduced``), ``aggregate=False`` replaces step 1 with
an identity grouping, ``bin_pack=False`` swaps the LBP pass for the
force-fine-grained variant.  Ablations and successor schedulers are
different pass lists, not code surgery.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Dict, Mapping

from ..observability.metrics import MetricsRegistry
from ..observability.state import STATE as _OBS_STATE
from .base import Pass, PassContext, PassGroup
from .contracts import Contract

__all__ = ["build_hdagg_group", "HDAGG_INPUTS", "HDAGG_ASSUMES"]

#: artifacts the hdagg driver seeds the context with
HDAGG_INPUTS = ("DAG", "Cost", "Cores", "Epsilon", "Backend")

#: invariants the kernel DAG builders guarantee on those inputs
HDAGG_ASSUMES = ("acyclic", "topo-ordered", "bit-identical-under-backend")

#: group-specific options and their defaults (see :func:`repro.core.hdagg.hdagg`)
HDAGG_OPTIONS = (("group_cost_cap_fraction", 0.25), ("sync", "barrier"))


# ----------------------------------------------------------------------
# pass bodies
# ----------------------------------------------------------------------
def _run_reduce(ctx: PassContext) -> Mapping[str, Any]:
    return {"ReducedDAG": ctx.impl("transitive_reduction")(ctx["DAG"])}


def _run_reduce_identity(ctx: PassContext) -> Mapping[str, Any]:
    # ablation (transitive_reduce=False): subtree grouping on the raw DAG
    return {"ReducedDAG": ctx["DAG"]}


def _run_aggregate(ctx: PassContext) -> Mapping[str, Any]:
    # step-1 groups stop growing at this fraction of one core's fair share
    cost = ctx["Cost"]
    cap_fraction = ctx.options["group_cost_cap_fraction"]
    cap = (
        cap_fraction * float(cost.sum()) / ctx["Cores"]
        if cap_fraction is not None
        else None
    )
    return {"Grouping": ctx.impl("aggregation")(ctx["ReducedDAG"], cost, cap)}


def _run_identity_grouping(ctx: PassContext) -> Mapping[str, Any]:
    # ablation (aggregate=False): step 1 disabled, every vertex its own group
    from ..graph.coarsen import identity_grouping

    g = ctx["DAG"]
    return {"ReducedDAG": g, "Grouping": identity_grouping(g.n)}


def _run_coarsen(ctx: PassContext) -> Mapping[str, Any]:
    g2, group_cost = ctx.impl("coarsen")(ctx["ReducedDAG"], ctx["Grouping"], ctx["Cost"])
    return {"CoarseDAG": g2, "GroupCost": group_cost}


def _run_lbp(ctx: PassContext) -> Mapping[str, Any]:
    from ..core.backends import BackendSpec, resolve_stage

    pack_fn, pack_tier = resolve_stage(BackendSpec.coerce(ctx.spec), "binpack")
    lbp = ctx.impl("lbp")(
        ctx["CoarseDAG"],
        ctx["GroupCost"],
        ctx["Cores"],
        ctx["Epsilon"],
        allow_fine_grained=True,
        pack=None if pack_tier == "numpy" else pack_fn,
    )
    return {"CoarsenedWaves": lbp}


def _run_lbp_fine_grained(ctx: PassContext) -> Mapping[str, Any]:
    # ablation of Lines 36-38: force fine-grained regardless of the
    # accumulated PGP.  The flag is flipped on the pass's own product
    # before publishing — input artifacts are never touched.
    lbp = _run_lbp(ctx)["CoarsenedWaves"]
    lbp.fine_grained = True
    return {"CoarsenedWaves": lbp}


def _run_expand(ctx: PassContext) -> Mapping[str, Any]:
    g = ctx["DAG"]
    lbp = ctx["CoarsenedWaves"]
    grouping = ctx["Grouping"]
    meta: Dict[str, Any] = {
        "n_groups": grouping.n_groups,
        "n_edges_original": g.n_edges,
        "n_edges_reduced": ctx["ReducedDAG"].n_edges,
        "n_coarse_vertices": ctx["CoarseDAG"].n,
        "n_coarse_wavefronts": len(lbp.coarsened),
        "n_wavefronts": lbp.waves.n_levels,
        "accumulated_pgp": lbp.accumulated_pgp,
        "cut_positions": lbp.cut_positions,
        "epsilon": ctx["Epsilon"],
        "backend": ctx["Backend"],
    }
    schedule = ctx.impl("expand")(
        lbp,
        grouping,
        g.n,
        ctx["Cores"],
        sync=ctx.options["sync"],
        meta=meta,
    )
    if _OBS_STATE.enabled and _OBS_STATE.registry is not None:
        _record_metrics(_OBS_STATE.registry, ctx)
    return {"Schedule": schedule}


def _record_metrics(reg: MetricsRegistry, ctx: PassContext) -> None:
    """Inspector metrics, read post hoc from the LBP decision log and the
    packing results so the inspector hot loops stay untouched."""
    n, n_coarse, p = ctx["DAG"].n, ctx["CoarseDAG"].n, ctx["Cores"]
    lbp = ctx["CoarsenedWaves"]
    reg.counter("inspector.vertices").inc(n)
    reg.counter("inspector.vertices_coarsened").inc(n - n_coarse)
    reg.gauge("inspector.coarse_vertices").set(n_coarse)
    reg.gauge("inspector.accumulated_pgp").set(lbp.accumulated_pgp)
    pgp_hist = reg.histogram("inspector.pgp_at_merge")
    for decision in lbp.decisions or []:
        pgp_hist.observe(decision.pgp)
    occupancy = reg.histogram("binpack.occupancy")
    for cw in lbp.coarsened:
        if cw.packing is not None and p > 0:
            occupancy.observe(cw.packing.n_bins_used / p)


# ----------------------------------------------------------------------
# span attribute helpers (only computed when observability is armed)
# ----------------------------------------------------------------------
def _reduce_attrs(ctx: PassContext) -> Dict[str, Any]:
    g = ctx["DAG"]
    return {"n": g.n, "n_edges": g.n_edges}


def _lbp_attrs(ctx: PassContext) -> Dict[str, Any]:
    return {"n_coarse": ctx["CoarseDAG"].n, "epsilon": ctx["Epsilon"]}


# ----------------------------------------------------------------------
# the group factory
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def build_hdagg_group(
    *,
    aggregate: bool = True,
    transitive_reduce: bool = True,
    bin_pack: bool = True,
) -> PassGroup:
    """The HDagg pass list for one ablation configuration.

    The default arguments produce the paper's Algorithm 1 — the group
    registered as ``"hdagg"``.  Toggles swap passes for contract-weakened
    variants instead of branching inside pass bodies; every variant keeps
    the scheduler name ``"hdagg"``.
    """
    passes = []
    if aggregate:
        reduce_establishes = ("transitively-reduced",) if transitive_reduce else ()
        passes.append(
            Pass(
                name="transitive_reduction",
                contract=Contract(
                    requires=("DAG",),
                    produces=("ReducedDAG",),
                    requires_invariants=("acyclic", "topo-ordered"),
                    establishes=reduce_establishes,
                    preserves=("acyclic", "topo-ordered", "bit-identical-under-backend"),
                ),
                run=_run_reduce if transitive_reduce else _run_reduce_identity,
                span_attrs=_reduce_attrs,
                repair="recompute",
            )
        )
        passes.append(
            Pass(
                name="aggregation",
                contract=Contract(
                    requires=("ReducedDAG", "Cost", "Cores"),
                    produces=("Grouping",),
                    requires_invariants=("acyclic", "topo-ordered"),
                    preserves=("acyclic", "topo-ordered", "bit-identical-under-backend"),
                ),
                run=_run_aggregate,
                repair="recompute",
            )
        )
    else:
        passes.append(
            Pass(
                name="identity-grouping",
                contract=Contract(
                    requires=("DAG",),
                    produces=("ReducedDAG", "Grouping"),
                    requires_invariants=("acyclic",),
                    preserves=("acyclic", "topo-ordered"),
                ),
                run=_run_identity_grouping,
                repair="recompute",
            )
        )
    passes.append(
        Pass(
            name="coarsen",
            contract=Contract(
                requires=("ReducedDAG", "Grouping", "Cost"),
                produces=("CoarseDAG", "GroupCost"),
                requires_invariants=("acyclic", "topo-ordered"),
                preserves=("acyclic", "topo-ordered", "bit-identical-under-backend"),
            ),
            run=_run_coarsen,
            repair="splice",
        )
    )
    passes.append(
        Pass(
            name="lbp",
            contract=Contract(
                requires=("CoarseDAG", "GroupCost", "Cores", "Epsilon"),
                produces=("CoarsenedWaves",),
                requires_invariants=("acyclic", "topo-ordered"),
                establishes=("balanced-under-epsilon",) if bin_pack else (),
                preserves=("bit-identical-under-backend",),
            ),
            run=_run_lbp if bin_pack else _run_lbp_fine_grained,
            span_attrs=_lbp_attrs,
            repair="splice",
        )
    )
    passes.append(
        Pass(
            name="expand",
            contract=Contract(
                requires=(
                    "CoarsenedWaves",
                    "Grouping",
                    "DAG",
                    "ReducedDAG",
                    "CoarseDAG",
                    "Cores",
                    "Epsilon",
                    "Backend",
                ),
                produces=("Schedule",),
                requires_invariants=("acyclic", "topo-ordered"),
                establishes=("dependence-closed", "vertex-cover"),
                preserves=("bit-identical-under-backend",),
            ),
            run=_run_expand,
            repair="splice",
        )
    )
    return PassGroup(
        name="hdagg",
        passes=tuple(passes),
        inputs=HDAGG_INPUTS,
        outputs=("Schedule",),
        assumes=HDAGG_ASSUMES,
        options=HDAGG_OPTIONS,
        description=(
            "Hybrid DAG Aggregation, the paper's Algorithm 1: two-hop "
            "transitive reduction exposes subtrees, aggregation groups densely "
            "connected vertices, the coarsened DAG G'' is cut into coarsened "
            "wavefronts by load-balance-preserving LBP with first-fit bin "
            "packing, and expansion emits width-partitions smallest-id-first"
        ),
    )
