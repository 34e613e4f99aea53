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

Two passes run it: ``dagp-partition`` (:func:`acyclic_partition`, the
``PartLabels`` artifact) and ``dagp-quotient-assign``
(:func:`assign_quotient`).  The quotient DAG's wavefronts become the
schedule levels with parts LPT-assigned to cores; independent partitions
of one quotient level run in parallel and a barrier separates levels,
matching the paper's description
("independent partitions are scheduled to execute in parallel" — and the
depth of the quotient is precisely DAGP's restricted-parallelism weakness).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.schedule import Schedule, ptr_from_counts
from ..graph.connected_components import connected_components_of_subset
from ..graph.dag import DAG
from ..graph.wavefronts import level_of_vertices
from ..sparse.csr import INDEX_DTYPE

__all__ = ["acyclic_partition", "assign_quotient", "edge_cut"]


def acyclic_partition(g: DAG, cost: np.ndarray, k: int) -> np.ndarray:
    """Partition vertices into at most ``k`` parts; returns per-vertex labels.

    Guarantees an acyclic quotient: every split either separates whole
    components (no edges) or cuts at a topological prefix (edges one-way).
    Part ids are dense, ordered by smallest member vertex.

    A disconnected set is split on its component labels: one
    ``np.bincount`` weighs the components, the greedy side choice (heaviest
    first, to the lighter side) runs over Python floats, and each half is
    ``verts[side == s]``, so both halves stay sorted.  A half made of whole
    components inherits their labels instead of searching for them again.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    cost = np.asarray(cost, dtype=np.float64)
    labels = np.zeros(g.n, dtype=INDEX_DTYPE)
    n_parts = 0
    # (sorted vertices, their component labels or None if unknown, parts)
    stack = [(np.arange(g.n, dtype=INDEX_DTYPE), None, min(k, g.n))]
    while stack:
        verts, comp, parts = stack.pop()
        halves = None
        if parts > 1 and verts.shape[0] > 1:
            halves = _bisect(g, cost, verts, comp)
        if halves is None:
            labels[verts] = n_parts
            n_parts += 1
            continue
        half = parts // 2
        stack.append((*halves[1], half))
        stack.append((*halves[0], parts - half))
    # densify by smallest member id
    first_member = np.full(n_parts, g.n, dtype=INDEX_DTYPE)
    np.minimum.at(first_member, labels, np.arange(g.n, dtype=INDEX_DTYPE))
    order = np.argsort(first_member, kind="stable")
    remap = np.empty(n_parts, dtype=INDEX_DTYPE)
    remap[order] = np.arange(n_parts, dtype=INDEX_DTYPE)
    return remap[labels]


def _bisect(g: DAG, cost: np.ndarray, verts: np.ndarray, comp: Optional[np.ndarray]):
    """Split sorted ``verts`` into two non-empty halves, or ``None``.

    ``comp`` holds the component labels of ``verts`` (dense, ordered by
    smallest member) when known.  Each half is ``(vertices, component
    labels)``: relabelled components for a component split, ``None`` for
    a prefix split.
    """
    if comp is None:
        comp, verts = connected_components_of_subset(g, verts)
    n_comp = int(comp.max()) + 1
    if n_comp > 1:
        weights = np.bincount(comp, weights=cost[verts], minlength=n_comp)
        wl = weights.tolist()
        loads = [0.0, 0.0]
        side_of = [0] * n_comp
        for c in np.argsort(-weights, kind="stable").tolist():
            s = 0 if loads[0] <= loads[1] else 1
            side_of[c] = s
            loads[s] += wl[c]
        comp_side = np.asarray(side_of, dtype=INDEX_DTYPE)
        side = comp_side[comp]
        halves = []
        for s in (0, 1):
            keep = side == s
            relabel = np.cumsum(comp_side == s) - 1
            halves.append((verts[keep], relabel[comp[keep]]))
    else:
        # topological prefix at half the cost (ids are topological)
        c = cost[verts]
        total = float(c.sum())
        if total <= 0:
            mid = verts.shape[0] // 2
        else:
            mid = int(np.searchsorted(np.cumsum(c), total / 2.0)) + 1
            mid = min(max(mid, 1), verts.shape[0] - 1)
        halves = [(verts[:mid], None), (verts[mid:], None)]
    if halves[0][0].shape[0] == 0 or halves[1][0].shape[0] == 0:
        return None
    return halves


def edge_cut(g: DAG, labels: np.ndarray) -> int:
    """Number of DAG edges whose endpoints lie in different parts."""
    src, dst = g.edge_list()
    return int(np.count_nonzero(labels[src] != labels[dst]))


def assign_quotient(g: DAG, cost: np.ndarray, p: int, labels: np.ndarray, k: int) -> Schedule:
    """List-schedule the quotient DAG of the part ``labels`` onto ``p`` cores.

    The body of the ``dagp-quotient-assign`` pass; ``k`` is the requested
    part count, reported in the meta.
    """
    n_parts = int(labels.max()) + 1

    # Quotient DAG and its wavefront levels.
    src, dst = g.edge_list()
    keep = labels[src] != labels[dst]
    cut_src, cut_dst = labels[src][keep], labels[dst][keep]
    quotient = DAG.from_edges(n_parts, cut_src, cut_dst, dedup=True)
    qlevel = level_of_vertices(quotient)
    n_levels = int(qlevel.max()) + 1
    part_cost = np.bincount(labels, weights=cost, minlength=n_parts)

    # Core assignment follows Figure 1(d): a part with dependences executes
    # on the core of its (heaviest-cut) predecessor — partitions connected
    # by dependences cluster on one core, so a level's effective width is
    # the number of independent chains, not min(width, p).  Sources go to
    # the least-loaded core.
    pred_of = np.full(n_parts, -1, dtype=INDEX_DTYPE)
    if cut_src.shape[0]:
        # heaviest predecessor: the most cut edges, the smallest id on ties
        pair, counts = np.unique(cut_dst * n_parts + cut_src, return_counts=True)
        d_part, s_part = np.divmod(pair, n_parts)
        by_weight = np.lexsort((s_part, -counts, d_part))
        first = np.ones(by_weight.shape[0], dtype=bool)
        first[1:] = d_part[by_weight[1:]] != d_part[by_weight[:-1]]
        pred_of[d_part[by_weight[first]]] = s_part[by_weight[first]]

    # Level by level, heavier parts claim their preferred core first; a
    # predecessor sits on an earlier level, so its core is already set.
    pred, weight = pred_of.tolist(), part_cost.tolist()
    part_core = [-1] * n_parts
    core_loads = [0.0] * p
    for part in np.lexsort((-part_cost, qlevel)).tolist():
        core = part_core[pred[part]] if pred[part] >= 0 else core_loads.index(min(core_loads))
        part_core[part] = core
        core_loads[core] += weight[part]

    # one width-partition per (level, used core): its vertices, ascending
    vlevel = qlevel[labels]
    vcore = np.asarray(part_core, dtype=INDEX_DTYPE)[labels]
    order = np.lexsort((np.arange(g.n, dtype=INDEX_DTYPE), vcore, vlevel))
    sizes = np.bincount(vlevel * p + vcore, minlength=n_levels * p)
    used = sizes > 0
    return Schedule(
        n=g.n,
        order=order,
        part_ptr=ptr_from_counts(sizes[used]),
        part_core=np.tile(np.arange(p, dtype=INDEX_DTYPE), n_levels)[used],
        level_ptr=ptr_from_counts(used.reshape(n_levels, p).sum(axis=1)),
        sync="barrier",
        algorithm="dagp",
        n_cores=p,
        meta={
            "k_requested": k,
            "n_parts": n_parts,
            "edge_cut": int(cut_src.shape[0]),
            "n_quotient_levels": n_levels,
        },
    )
