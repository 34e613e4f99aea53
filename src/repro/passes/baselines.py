"""The baseline schedulers as declarative pass groups.

The level-set family (wavefront, SpMP, MKL-style) shares one
``wavefronts`` pass and differs only in its emit pass — chunking policy
and synchronisation model are *configuration*.  ``coarsenk`` adds a
fixed-window merge pass between the two.  LBC and DAGP keep their
monolithic algorithms (:mod:`repro.schedulers.lbc`,
:mod:`repro.schedulers.dagp`) as single passes with full contracts: the
verifier still checks their dataflow, and decomposing them further is a
follow-up, not a prerequisite.  Each group's description carries the
paper's rationale for the baseline.
"""

from __future__ import annotations

from typing import Any, List, Mapping

import numpy as np

from ..sparse.csr import INDEX_DTYPE
from .base import Pass, PassContext, PassGroup
from .contracts import Contract

__all__ = [
    "chunk_by_cost",
    "chunk_by_count",
    "build_wavefront_group",
    "build_spmp_group",
    "build_mkl_group",
    "build_coarsen_k_group",
    "build_serial_group",
    "build_lbc_group",
    "build_dagp_group",
]

#: Default coarsenk merge window (levels per coarsened wavefront).
DEFAULT_WINDOW = 4

#: The paper's best-performing part count for DAGP.
DEFAULT_DAGP_PARTS = 1000

_BASELINE_INPUTS = ("DAG", "Cost", "Cores")
_BASELINE_ASSUMES = ("acyclic", "topo-ordered")


# ----------------------------------------------------------------------
# chunking helpers of the level-set emit passes
# ----------------------------------------------------------------------
def chunk_by_cost(vertices: np.ndarray, cost: np.ndarray, p: int) -> List[np.ndarray]:
    """Split ``vertices`` (kept in order) into at most ``p`` contiguous chunks
    of approximately equal total cost.

    This is the static "balanced chunks" strategy of cost-aware level-set
    executors: chunk boundaries fall where the cost prefix crosses multiples
    of ``total / p``.
    """
    if vertices.shape[0] == 0:
        return []
    c = cost[vertices]
    total = float(c.sum())
    if total <= 0.0 or p == 1:
        return [vertices]
    prefix = np.cumsum(c)
    bounds = [0]
    for k in range(1, p):
        # greedy fill: a chunk ends with the vertex whose prefix reaches the
        # k-th cost quantile (so a single huge vertex gets its own chunk)
        pos = int(np.searchsorted(prefix, total * k / p, side="left")) + 1
        if pos > bounds[-1] and pos < vertices.shape[0]:
            bounds.append(pos)
    bounds.append(vertices.shape[0])
    return [vertices[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]


def chunk_by_count(vertices: np.ndarray, p: int) -> List[np.ndarray]:
    """Split ``vertices`` into at most ``p`` contiguous chunks of equal count
    (cost-oblivious static scheduling, the vendor-library default)."""
    n = vertices.shape[0]
    if n == 0:
        return []
    p = min(p, n)
    bounds = np.linspace(0, n, p + 1).astype(INDEX_DTYPE)
    return [vertices[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]


# ----------------------------------------------------------------------
# shared pass: level decomposition
# ----------------------------------------------------------------------
def _run_wavefronts(ctx: PassContext) -> Mapping[str, Any]:
    from ..graph.wavefronts import compute_wavefronts

    return {"Wavefronts": compute_wavefronts(ctx["DAG"])}


_WAVEFRONTS_PASS = Pass(
    name="wavefronts",
    contract=Contract(
        requires=("DAG",),
        produces=("Wavefronts",),
        requires_invariants=("acyclic",),
        preserves=("acyclic", "topo-ordered"),
    ),
    run=_run_wavefronts,
    repair="recompute",
)


# ----------------------------------------------------------------------
# wavefront / spmp / mkl emit passes
# ----------------------------------------------------------------------
def _emit_levels(ctx: PassContext, *, chunk: str, sync: str, algorithm: str) -> Mapping[str, Any]:
    from ..core.schedule import Schedule, WidthPartition

    g = ctx["DAG"]
    p = ctx["Cores"]
    waves = ctx["Wavefronts"]
    levels: List[List[WidthPartition]] = []
    for k in range(waves.n_levels):
        verts = waves.wavefront(k)
        if chunk == "cost":
            chunks = chunk_by_cost(verts, ctx["Cost"], p)
        else:
            chunks = chunk_by_count(verts, p)
        levels.append(
            [WidthPartition(core=i, vertices=ch) for i, ch in enumerate(chunks)]
        )
    schedule = Schedule(
        n=g.n,
        levels=levels,
        sync=sync,
        algorithm=algorithm,
        n_cores=p,
        meta={"n_wavefronts": waves.n_levels},
    )
    return {"Schedule": schedule}


def _run_emit_wavefront(ctx: PassContext) -> Mapping[str, Any]:
    return _emit_levels(ctx, chunk="cost", sync="barrier", algorithm="wavefront")


def _run_emit_spmp(ctx: PassContext) -> Mapping[str, Any]:
    return _emit_levels(ctx, chunk="cost", sync="p2p", algorithm="spmp")


def _run_emit_mkl(ctx: PassContext) -> Mapping[str, Any]:
    return _emit_levels(ctx, chunk="count", sync="barrier", algorithm="mkl")


def _emit_pass(name: str, run: Any, requires: tuple, repair: str = "splice") -> Pass:
    """A pass that emits the final schedule from ``requires``."""
    return Pass(
        name=name,
        contract=Contract(
            requires=requires,
            produces=("Schedule",),
            requires_invariants=("acyclic", "topo-ordered"),
            establishes=("dependence-closed", "vertex-cover"),
        ),
        run=run,
        repair=repair,
    )


def build_wavefront_group() -> PassGroup:
    return PassGroup(
        name="wavefront",
        passes=(
            _WAVEFRONTS_PASS,
            _emit_pass(
                "emit-cost-chunks", _run_emit_wavefront, ("Wavefronts", "DAG", "Cost", "Cores")
            ),
        ),
        inputs=_BASELINE_INPUTS,
        assumes=_BASELINE_ASSUMES,
        description=(
            "Wavefront parallelism [2], [3]: level sets of the DAG, each split "
            "into at most p contiguous cost-balanced chunks, one global barrier "
            "per level.  Its weaknesses — a barrier count that grows with the "
            "critical path, no reuse of dependent iterations on one core — fall "
            "out of the structure and are measured by the metrics layer"
        ),
    )


def build_spmp_group() -> PassGroup:
    return PassGroup(
        name="spmp",
        passes=(
            _WAVEFRONTS_PASS,
            _emit_pass(
                "emit-p2p-chunks", _run_emit_spmp, ("Wavefronts", "DAG", "Cost", "Cores")
            ),
        ),
        inputs=_BASELINE_INPUTS,
        assumes=_BASELINE_ASSUMES,
        description=(
            "SpMP [4]: level grouping with point-to-point synchronisation.  Each "
            "level splits into contiguous cost-balanced row blocks, and a core "
            "starts its next block as soon as the blocks it depends on are done, "
            "so imbalance within a level is absorbed by the next instead of "
            "stalling at a barrier — the best load balance in Figures 6/7, with "
            "locality still wavefront-ordered"
        ),
    )


def build_mkl_group() -> PassGroup:
    return PassGroup(
        name="mkl",
        passes=(
            _WAVEFRONTS_PASS,
            _emit_pass("emit-count-chunks", _run_emit_mkl, ("Wavefronts", "DAG", "Cores")),
        ),
        inputs=("DAG", "Cores"),
        assumes=_BASELINE_ASSUMES,
        description=(
            "MKL-style vendor SpTRSV (a substitution: MKL is closed source): "
            "level sets with a barrier per level and cost-oblivious equal-count "
            "chunking, what mkl_sparse_optimize + parallel trsv publicly do.  "
            "The cost-obliviousness makes it weaker than Wavefront on skewed "
            "matrices, in line with the paper's larger speedup over MKL"
        ),
    )


# ----------------------------------------------------------------------
# coarsenk: fixed-window merge between the shared passes
# ----------------------------------------------------------------------
def _run_window_merge(ctx: PassContext) -> Mapping[str, Any]:
    from ..core.binpack import first_fit_pack
    from ..graph.connected_components import components_as_lists

    k = ctx.options["k"]
    if k < 1:
        raise ValueError("window k must be >= 1")
    g = ctx["DAG"]
    cost = ctx["Cost"]
    p = ctx["Cores"]
    waves = ctx["Wavefronts"]
    windows = []
    for lo in range(0, waves.n_levels, k):
        hi = min(lo + k, waves.n_levels)
        verts = waves.vertices_in_range(lo, hi)
        comps = components_as_lists(g, verts)
        packing = first_fit_pack([float(cost[c].sum()) for c in comps], p)
        windows.append((lo, hi, comps, packing))
    return {"LBPPartition": windows}


def _run_emit_windows(ctx: PassContext) -> Mapping[str, Any]:
    from ..core.schedule import Schedule

    p = ctx["Cores"]
    levels = [
        parts
        for _lo, _hi, comps, packing in ctx["LBPPartition"]
        if (parts := packing.partitions(comps, p))
    ]
    schedule = Schedule(
        n=ctx["DAG"].n,
        levels=levels,
        sync="barrier",
        algorithm="coarsenk",
        n_cores=p,
        meta={"window": ctx.options["k"], "n_wavefronts": ctx["Wavefronts"].n_levels},
    )
    return {"Schedule": schedule}


def build_coarsen_k_group() -> PassGroup:
    return PassGroup(
        name="coarsenk",
        passes=(
            _WAVEFRONTS_PASS,
            Pass(
                name="window-merge",
                contract=Contract(
                    requires=("Wavefronts", "DAG", "Cost", "Cores"),
                    produces=("LBPPartition",),
                    requires_invariants=("acyclic", "topo-ordered"),
                ),
                run=_run_window_merge,
                repair="splice",
            ),
            _emit_pass(
                "emit-windows", _run_emit_windows, ("LBPPartition", "Wavefronts", "DAG", "Cores")
            ),
        ),
        inputs=_BASELINE_INPUTS,
        assumes=_BASELINE_ASSUMES,
        options=(("k", DEFAULT_WINDOW),),
        description=(
            "Fixed-window wavefront coarsening [5], [6], the prior art LBP "
            "improves on: merge every k consecutive wavefronts regardless of "
            "component structure, then pack each window's connected components "
            "into p bins.  A window crossing a connectivity bottleneck yields one "
            "giant component and a serialised level — what the PGP-driven cut "
            "policy avoids (Section IV-C)"
        ),
    )


# ----------------------------------------------------------------------
# serial / lbc / dagp: single-pass groups
# ----------------------------------------------------------------------
def _run_serial(ctx: PassContext) -> Mapping[str, Any]:
    from ..core.schedule import Schedule, WidthPartition

    g = ctx["DAG"]
    part = WidthPartition(core=0, vertices=np.arange(g.n, dtype=INDEX_DTYPE))
    schedule = Schedule(
        n=g.n, levels=[[part]], sync="barrier", algorithm="serial", n_cores=1
    )
    return {"Schedule": schedule}


def build_serial_group() -> PassGroup:
    return PassGroup(
        name="serial",
        passes=(_emit_pass("emit-serial", _run_serial, ("DAG",), "recompute"),),
        inputs=("DAG",),
        assumes=_BASELINE_ASSUMES,
        description="ascending-id order on one core, no synchronisation (NRE denominator)",
    )


def _run_lbc(ctx: PassContext) -> Mapping[str, Any]:
    from ..schedulers.lbc import lbc_body

    return {
        "Schedule": lbc_body(ctx["DAG"], ctx["Cost"], ctx["Cores"], ctx["Epsilon"])
    }


def build_lbc_group() -> PassGroup:
    return PassGroup(
        name="lbc",
        passes=(
            _emit_pass(
                "lbc-etree-cut", _run_lbc, ("DAG", "Cost", "Cores", "Epsilon"), "recompute"
            ),
        ),
        inputs=("DAG", "Cost", "Cores", "Epsilon"),
        assumes=_BASELINE_ASSUMES,
        description=(
            "LBC, load-balanced level coarsening (ParSy) [7]: the elimination "
            "tree stands in for the chordalised DAG (every dependence stays "
            "inside one subtree); the largest cut whose below-forest packs at "
            "least p subtrees within epsilon becomes coarsened wavefront 1, the "
            "rest wavefront 2 — the paper's two-wavefront shape with fewer than "
            "p workloads in the second"
        ),
    )


def _run_dagp(ctx: PassContext) -> Mapping[str, Any]:
    from ..schedulers.dagp import dagp_body

    return {
        "Schedule": dagp_body(ctx["DAG"], ctx["Cost"], ctx["Cores"], ctx.options["k"])
    }


def build_dagp_group() -> PassGroup:
    return PassGroup(
        name="dagp",
        passes=(
            _emit_pass("dagp-partition-quotient", _run_dagp, _BASELINE_INPUTS, "recompute"),
        ),
        inputs=_BASELINE_INPUTS,
        assumes=_BASELINE_ASSUMES,
        options=(("k", DEFAULT_DAGP_PARTS),),
        description=(
            "DAGP [1]: acyclic partitioning into k parts (k = 1000, the paper's "
            "best) with a small edge cut, parts executed atomically; the quotient "
            "DAG's levels are list-scheduled with barriers.  Reuse inside a part "
            "is excellent, but dependences between parts serialise execution — "
            "the restricted average parallelism of Section I"
        ),
    )
