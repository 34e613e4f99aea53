"""DAGP baseline: acyclic DAG partitioning that minimises edge cut [1].

DAGP partitions the vertices into ``k`` parts (the paper reports ``k = 1000``
as the best-performing configuration) such that the quotient graph stays
acyclic and the number of cut edges is small; parts execute atomically, so
data reuse inside a part is excellent but the dependences *between* parts
serialise execution — "the partitioned graph of DAGP has restricted average
parallelism" (Section I), which is the weakness the evaluation exposes.

Reproduction note (DESIGN.md): the original DAGP is a multilevel
coarsen-partition-refine code.  We substitute a recursive acyclic bisection
with the same contract and the same failure mode:

* if the current vertex set is disconnected, split it by distributing whole
  components (zero cut — what any edge-cut minimiser does first);
* otherwise split at a cost-balanced *topological prefix* (acyclic by
  construction; on id-topological kernel DAGs, an id prefix), which keeps
  parts contiguous and reuse-friendly.

The quotient DAG's wavefronts become the schedule levels with parts
LPT-assigned to cores; independent partitions of one quotient level run in
parallel and a barrier separates levels, matching the paper's description
("independent partitions are scheduled to execute in parallel" — and the
depth of the quotient is precisely DAGP's restricted-parallelism weakness).
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..core.schedule import Schedule, bucket_level, ptr_from_counts, stack_levels
from ..graph.connected_components import components_as_lists
from ..graph.dag import DAG, gather_slices
from ..graph.wavefronts import level_of_vertices
from ..sparse.csr import INDEX_DTYPE

__all__ = ["dagp_body", "acyclic_partition", "edge_cut"]


def _split_components(
    comps: List[np.ndarray], cost: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Distribute whole components into two cost-balanced halves (greedy)."""
    weights = np.array([float(cost[c].sum()) for c in comps])
    order = np.argsort(-weights, kind="stable")
    loads = [0.0, 0.0]
    sides: List[List[np.ndarray]] = [[], []]
    for k in order:
        side = 0 if loads[0] <= loads[1] else 1
        sides[side].append(comps[int(k)])
        loads[side] += weights[k]
    left = np.sort(np.concatenate(sides[0])) if sides[0] else np.empty(0, dtype=INDEX_DTYPE)
    right = np.sort(np.concatenate(sides[1])) if sides[1] else np.empty(0, dtype=INDEX_DTYPE)
    return left, right


def acyclic_partition(g: DAG, cost: np.ndarray, k: int) -> np.ndarray:
    """Partition vertices into at most ``k`` parts; returns per-vertex labels.

    Guarantees an acyclic quotient: every split either separates whole
    components (no edges) or cuts at a topological prefix (edges one-way).
    Part ids are dense, ordered by smallest member vertex.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    cost = np.asarray(cost, dtype=np.float64)
    labels = np.zeros(g.n, dtype=INDEX_DTYPE)
    next_label = [0]

    def rec(verts: np.ndarray, parts: int) -> None:
        if parts <= 1 or verts.shape[0] <= 1:
            labels[verts] = next_label[0]
            next_label[0] += 1
            return
        comps = components_as_lists(g, verts)
        if len(comps) > 1:
            left, right = _split_components(comps, cost)
        else:
            # topological prefix at half the cost (ids are topological)
            c = cost[verts]
            total = float(c.sum())
            if total <= 0:
                mid = verts.shape[0] // 2
            else:
                mid = int(np.searchsorted(np.cumsum(c), total / 2.0)) + 1
                mid = min(max(mid, 1), verts.shape[0] - 1)
            left, right = verts[:mid], verts[mid:]
        if left.shape[0] == 0 or right.shape[0] == 0:
            labels[verts] = next_label[0]
            next_label[0] += 1
            return
        half = parts // 2
        rec(left, parts - half)
        rec(right, half)

    verts = np.arange(g.n, dtype=INDEX_DTYPE)
    rec(verts, min(k, g.n))
    # densify by smallest member id
    first_member = np.full(next_label[0], g.n, dtype=INDEX_DTYPE)
    np.minimum.at(first_member, labels, verts)
    order = np.argsort(first_member, kind="stable")
    remap = np.empty(next_label[0], dtype=INDEX_DTYPE)
    remap[order] = np.arange(next_label[0], dtype=INDEX_DTYPE)
    return remap[labels]


def edge_cut(g: DAG, labels: np.ndarray) -> int:
    """Number of DAG edges whose endpoints lie in different parts."""
    src, dst = g.edge_list()
    return int(np.count_nonzero(labels[src] != labels[dst]))


def dagp_body(g: DAG, cost: np.ndarray, p: int, k: int) -> Schedule:
    """Partition into ``k`` parts, then list-schedule the quotient DAG.

    The body of the ``dagp`` scheduler's single ``dagp-partition-quotient``
    pass.
    """
    labels = acyclic_partition(g, cost, k)
    n_parts = int(labels.max()) + 1

    # Quotient DAG and its wavefront levels.
    src, dst = g.edge_list()
    keep = labels[src] != labels[dst]
    quotient = DAG.from_edges(n_parts, labels[src][keep], labels[dst][keep], dedup=True)
    qlevel = level_of_vertices(quotient)

    part_cost = np.zeros(n_parts, dtype=np.float64)
    np.add.at(part_cost, labels, cost)
    # members of part i: mflat[mptr[i]:mptr[i + 1]]
    mflat = np.argsort(labels, kind="stable").astype(INDEX_DTYPE, copy=False)
    mptr = ptr_from_counts(np.bincount(labels, minlength=n_parts))

    # Core assignment follows Figure 1(d): a part with dependences executes
    # on the core of its (heaviest-cut) predecessor — partitions connected
    # by dependences cluster on one core, so a level's effective width is
    # the number of independent chains, not min(width, p).  Sources go to
    # the least-loaded core.
    part_core = np.full(n_parts, -1, dtype=INDEX_DTYPE)
    core_loads = np.zeros(p, dtype=np.float64)
    pred_of = np.full(n_parts, -1, dtype=INDEX_DTYPE)
    if np.any(keep):
        cut_src, cut_dst = labels[src][keep], labels[dst][keep]
        # heaviest predecessor = the one contributing the most cut edges
        pair, counts = np.unique(
            np.stack([cut_dst, cut_src], axis=1), axis=0, return_counts=True
        )
        best_count = np.zeros(n_parts, dtype=np.int64)
        for (d_part, s_part), cnt in zip(pair.tolist(), counts.tolist()):
            if cnt > best_count[d_part]:
                best_count[d_part] = cnt
                pred_of[d_part] = s_part

    levels = []
    cores = np.arange(p, dtype=INDEX_DTYPE)
    for lev in range(int(qlevel.max()) + 1 if n_parts else 0):
        parts_here = np.nonzero(qlevel == lev)[0]
        # heavier parts claim their preferred core first
        order = parts_here[np.argsort(-part_cost[parts_here], kind="stable")]
        for part_id in order:
            pred = pred_of[part_id]
            core = int(part_core[pred]) if pred >= 0 else int(np.argmin(core_loads))
            part_core[part_id] = core
            core_loads[core] += part_cost[part_id]
        # one width-partition per used core: its parts' vertices, ascending
        verts = gather_slices(mptr, mflat, parts_here)
        levels.append(bucket_level(verts, part_core[labels[verts]], cores))

    return Schedule(
        n=g.n,
        **stack_levels(levels),
        sync="barrier",
        algorithm="dagp",
        n_cores=p,
        meta={
            "k_requested": k,
            "n_parts": n_parts,
            "edge_cut": edge_cut(g, labels),
            "n_quotient_levels": int(qlevel.max()) + 1,
        },
    )
