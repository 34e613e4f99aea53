"""The HDagg inspector: Algorithm 1 end to end.

``hdagg(G, C, p, epsilon)`` mirrors Listing 2's ``HDagg(G, C, num_cores(),
epsilon())``: it takes the kernel's dependence DAG, the per-iteration cost
function, the core count, and the load-balance threshold, and returns a
:class:`~repro.core.schedule.Schedule` of coarsened wavefronts made of
width-partitions.

Pipeline:

1. *Aggregating densely connected vertices* — two-hop transitive reduction,
   subtree grouping, coarsened DAG ``G''``
   (:mod:`repro.core.aggregation`).
2. *LBP wavefront coarsening* — merge wavefronts of ``G''`` under the PGP
   threshold with first-fit bin packing (:mod:`repro.core.lbp`).
3. Expansion back to original iteration ids, smallest-id-first inside each
   bin (the spatial-locality rule of Section IV-C).

The stages live in :mod:`repro.passes.hdagg` as a declarative pass group
with per-stage contracts, run by the one scheduler driver
(:func:`repro.passes.run_scheduler`); this module keeps the public entry
point and the expansion stage implementation.  The keyword switches
(``aggregate``, ``transitive_reduce``, ``bin_pack``) exist for the
ablation studies and select contract-weakened pass-group variants; the
defaults are the paper's algorithm.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..graph.coarsen import Grouping
from ..graph.dag import DAG, gather_slices
from ..passes import build_hdagg_group, run_scheduler
from ..sparse.csr import INDEX_DTYPE
from .lbp import LBPResult
from .pgp import DEFAULT_EPSILON
from .schedule import Schedule, bucket_level, stack_levels

__all__ = ["hdagg", "expand_lbp_to_schedule"]


def _grouping_csr(grouping: Grouping) -> tuple[np.ndarray, np.ndarray]:
    """Flatten a grouping into CSR form: members of group ``i`` are
    ``flat[ptr[i]:ptr[i+1]]`` in ascending id order."""
    labels = grouping.labels
    flat = np.argsort(labels, kind="stable").astype(INDEX_DTYPE, copy=False)
    ptr = np.zeros(grouping.n_groups + 1, dtype=INDEX_DTYPE)
    np.cumsum(np.bincount(labels, minlength=grouping.n_groups), out=ptr[1:])
    return ptr, flat


def _expand_cw(
    cw, fine_grained: bool, gptr: np.ndarray, gflat: np.ndarray,
    gsize: np.ndarray, p: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand one coarsened wavefront into its width-partitions.

    Expands the whole coarsened wavefront at once: gather every member
    vertex, tag it with its target bucket (bin, or component in
    fine-grained mode), and :func:`bucket_level` sorts by (bucket, id)
    into each partition's smallest-id-first vertex run.  Returns the
    ``(vertices, sizes, cores)`` block of :func:`stack_levels`.  Shared by
    the full expansion and the incremental repair path, which re-expands
    only the coarsened wavefronts inside the dirty window.
    """
    sizes = np.asarray([c.shape[0] for c in cw.components], dtype=INDEX_DTYPE)
    coarse_all = np.concatenate(cw.components)
    comp_of_coarse = np.repeat(np.arange(sizes.shape[0], dtype=INDEX_DTYPE), sizes)
    if fine_grained:
        bucket_of_coarse = comp_of_coarse
        cores = np.full(sizes.shape[0], -1, dtype=INDEX_DTYPE)
    else:
        bucket_of_coarse = cw.packing.assignment[comp_of_coarse]
        cores = np.arange(p, dtype=INDEX_DTYPE)
    verts = gather_slices(gptr, gflat, coarse_all)
    return bucket_level(verts, np.repeat(bucket_of_coarse, gsize[coarse_all]), cores)


def expand_lbp_to_schedule(
    lbp: LBPResult,
    grouping: Grouping,
    n: int,
    p: int,
    *,
    algorithm: str = "hdagg",
    sync: str = "barrier",
    meta: dict | None = None,
) -> Schedule:
    """Turn an :class:`LBPResult` over ``G''`` into a vertex-level schedule.

    Packed mode: each used bin of a coarsened wavefront becomes one
    width-partition pinned to that bin's core.  Fine-grained mode
    (Lines 36-38): every connected component becomes its own width-partition
    with ``core = -1`` for dynamic placement.
    """
    gptr, gflat = _grouping_csr(grouping)
    gsize = np.diff(gptr)

    blocks = [
        _expand_cw(cw, lbp.fine_grained, gptr, gflat, gsize, p)
        for cw in lbp.coarsened
        if cw.components
    ]
    return Schedule(
        n=n,
        **stack_levels(b for b in blocks if b[1].shape[0]),
        sync=sync,
        algorithm=algorithm,
        n_cores=p,
        fine_grained=lbp.fine_grained,
        meta=meta or {},
    )


def hdagg(
    g: DAG,
    cost: np.ndarray,
    p: int,
    epsilon: float = DEFAULT_EPSILON,
    *,
    aggregate: bool = True,
    transitive_reduce: bool = True,
    bin_pack: bool = True,
    group_cost_cap_fraction: float | None = 0.25,
    sync: str = "barrier",
) -> Schedule:
    """Build the HDagg schedule for DAG ``g`` with vertex costs ``cost``.

    Parameters
    ----------
    g:
        Dependence DAG (id-topological, as produced by the kernel builders).
    cost:
        Per-iteration cost, length ``g.n`` (non-zeros touched).
    p:
        Number of physical cores (Listing 2's ``num_cores()``).
    epsilon:
        Load-balance threshold for PGP (Listing 2's ``epsilon()``).
    aggregate:
        Disable to skip step 1 entirely (ablation: every vertex is its own
        group).
    transitive_reduce:
        Disable to run subtree grouping on the raw DAG (ablation: shows why
        the reduction is what exposes subtrees).
    bin_pack:
        Disable to force fine-grained tasks regardless of accumulated PGP
        (ablation of Lines 36-38).
    group_cost_cap_fraction:
        Step-1 groups stop growing once their cost exceeds this fraction of
        one core's fair share (``total_cost / p``); keeps tree-shaped
        reduced DAGs (chordal inputs) from collapsing into one sequential
        group.  ``None`` reproduces the paper's uncapped listing.
    sync:
        ``"barrier"`` is the paper's executor (a global barrier between
        coarsened wavefronts).  ``"p2p"`` is an extension: width-partitions
        synchronise point-to-point like SpMP groups, letting coarsened
        wavefronts overlap — safe because width-partitions are connected
        components (no intra-level dependences by construction).

    The ``coarsen`` and ``lbp`` stages run the compiled library when it is
    built; the schedule is the same either way, and ``meta["backend"]``
    names the tier that ran.
    """
    group = build_hdagg_group(
        aggregate=aggregate, transitive_reduce=transitive_reduce, bin_pack=bin_pack
    )
    ctx = run_scheduler(
        group, g, cost, p, epsilon,
        group_cost_cap_fraction=group_cost_cap_fraction, sync=sync,
    )
    return ctx["Schedule"]
