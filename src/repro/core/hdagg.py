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
   bin (the spatial-locality rule of Section IV-C): a few array passes over
   the flat LBP result, all coarsened wavefronts at once.

The stages live in :mod:`repro.passes.hdagg` as a declarative pass group
with per-stage contracts, run by the one scheduler driver
(:func:`repro.passes.run_scheduler`); this module keeps the public entry
point and the expansion stage implementation.  The keyword switches
(``aggregate``, ``transitive_reduce``, ``bin_pack``) exist for the
ablation studies and select contract-weakened pass-group variants; the
defaults are the paper's algorithm.
"""

from __future__ import annotations

import numpy as np

from ..graph.coarsen import Grouping
from ..graph.dag import DAG, gather_slices
from ..passes import build_hdagg_group, run_scheduler
from ..sparse.csr import INDEX_DTYPE
from .lbp import LBPResult
from .pgp import DEFAULT_EPSILON
from .schedule import Schedule, ptr_from_counts

__all__ = ["hdagg", "expand_lbp_to_schedule"]


def _grouping_csr(grouping: Grouping) -> tuple[np.ndarray, np.ndarray]:
    """Flatten a grouping into CSR form: members of group ``i`` are
    ``flat[ptr[i]:ptr[i+1]]`` in ascending id order."""
    labels = grouping.labels
    flat = np.argsort(labels, kind="stable").astype(INDEX_DTYPE, copy=False)
    ptr = np.zeros(grouping.n_groups + 1, dtype=INDEX_DTYPE)
    np.cumsum(np.bincount(labels, minlength=grouping.n_groups), out=ptr[1:])
    return ptr, flat


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

    All coarsened wavefronts at once, on the flat LBP arrays: one gather
    lists every coarse vertex's members, each member is tagged with its
    partition key (``wavefront * p + bin``, or its component in
    fine-grained mode — both increase with the wavefront), and one lexsort
    orders the members by (key, id): runs of one key are the partitions,
    smallest id first (Section IV-C).
    """
    gptr, gflat = _grouping_csr(grouping)
    comp_sizes = np.diff(lbp.comp_ptr)
    cw_of_comp = np.repeat(
        np.arange(lbp.n_coarsened, dtype=INDEX_DTYPE), np.diff(lbp.cw_ptr)
    )
    if lbp.fine_grained:
        key = np.arange(comp_sizes.shape[0], dtype=INDEX_DTYPE)
    else:
        key = cw_of_comp * p + lbp.comp_bin
    coarse = lbp.vertices
    verts = gather_slices(gptr, gflat, coarse)
    vkey = np.repeat(np.repeat(key, comp_sizes), np.diff(gptr)[coarse])
    order = np.lexsort((verts, vkey))
    vkey = vkey[order]
    starts = np.flatnonzero(np.diff(vkey, prepend=-1))
    part_key = vkey[starts]
    if lbp.fine_grained:
        part_core = np.full(part_key.shape[0], -1, dtype=INDEX_DTYPE)
        part_level = cw_of_comp[part_key]
    else:
        part_core = part_key % p
        part_level = part_key // p
    widths = np.bincount(part_level)
    return Schedule(
        n=n,
        order=verts[order],
        part_ptr=np.append(starts, vkey.shape[0]),
        part_core=part_core,
        level_ptr=ptr_from_counts(widths[widths > 0]),
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
