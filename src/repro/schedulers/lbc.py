"""LBC baseline: Load-Balanced level Coarsening (ParSy) [7].

LBC is optimised for tree-structured DAGs.  On a general sparse-kernel DAG
it "chordalises the DAG by adding more edges and then converts it to a
tree" (Section II / Figure 1(c)).  The tree in question is the classic
**elimination tree**: chordal fill never changes it, and the fundamental
etree property — ``A[v, u] != 0`` with ``u < v`` implies ``u`` is a
descendant of ``v`` in etree(A) — means *every dependence edge stays inside
one subtree*.  That is exactly what lets LBC treat disjoint subtrees as
independent workloads without inspecting individual DAG edges.

The algorithm, as two passes:

1. ``lbc-etree`` (:func:`build_etree`): etree(A) with Liu's algorithm
   (:func:`repro.sparse.symbolic.elimination_tree`) directly from the
   dependence DAG's in-edges, then leaf-up subtree heights, subtree cost
   sums and subtree minima, one ascending pass each;
2. ``lbc-cut-pack`` (:func:`cut_pack`): scan cut levels from the top: the
   largest cut whose below-forest decomposes into at least ``p``
   tree-connected components that first-fit bin-pack within the balance
   threshold becomes coarsened wavefront 1 (w-partitions = packed
   subtrees); everything at or above the cut becomes coarsened wavefront 2.

The second wavefront's components are almost always fewer than ``p`` — the
paper's observation that "LBC always creates two wavefronts where one of
the wavefronts has fewer than p workloads", i.e. a 50 % load-imbalance
ratio.

The cut search never materialises a component.  ``parent(v) > v`` and
``h(parent(v)) > h(v)``, so the forest below cut ``c`` (vertices with
``h < c``) falls apart into whole subtrees: those rooted at the vertices
with ``h < c`` whose parent is a root or has ``h >= c``.  A component's
cost is its root's subtree sum and its smallest member id (the packing
order) its root's subtree minimum, so one candidate costs a few array
passes and one first-fit.  Only the chosen cut's components and the tail
are labelled, in one descending pass.

Validity follows from the etree property: an edge ``u -> v`` has ``u`` a
descendant of ``v``, so heights satisfy ``h(u) < h(v)`` and the tree path
between them never leaves a side of the cut — both endpoints land either in
the same w-partition (same subtree component) or in consecutive coarsened
wavefronts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.binpack import first_fit
from ..core.pgp import pgp_of_loads
from ..core.schedule import Schedule, bucket_level, stack_levels
from ..graph.dag import DAG
from ..sparse.csr import INDEX_DTYPE
from ..sparse.symbolic import elimination_tree

__all__ = ["ETree", "build_etree", "cut_pack", "tree_levels"]

#: Deep trees are searched at this many subsampled cut levels.
MAX_CANDIDATE_CUTS = 48


@dataclass(frozen=True)
class ETree:
    """The ``ETree`` artifact: the DAG's elimination tree, summarised.

    ``parent[root] = -1``; ``height`` is the leaf-up height (leaves 0);
    ``subtree_cost[v]`` sums the cost over ``v``'s subtree and
    ``subtree_min[v]`` is its smallest vertex id.
    """

    parent: np.ndarray
    height: np.ndarray
    subtree_cost: np.ndarray
    subtree_min: np.ndarray


def tree_levels(parent: np.ndarray) -> np.ndarray:
    """Leaf-up height of every vertex in a parent-pointer forest.

    Leaves are height 0; a parent is ``1 + max(child heights)``.  One
    ascending pass suffices because ``parent(v) > v``.
    """
    par = np.asarray(parent).tolist()
    level = [0] * len(par)
    for v, w in enumerate(par):
        if w >= 0:
            if w <= v:
                raise ValueError("parent pointers must satisfy parent(v) > v")
            if level[w] <= level[v]:
                level[w] = level[v] + 1
    return np.asarray(level, dtype=INDEX_DTYPE)


def build_etree(g: DAG, cost: np.ndarray) -> ETree:
    """The elimination tree of ``g`` with heights and subtree sums and minima."""
    parent = elimination_tree(g.in_ptr, g.in_idx)
    height = tree_levels(parent)
    par = parent.tolist()
    sums = np.asarray(cost, dtype=np.float64).tolist()
    mins = list(range(len(par)))
    for v, w in enumerate(par):
        if w >= 0:
            sums[w] += sums[v]
            if mins[v] < mins[w]:
                mins[w] = mins[v]
    return ETree(
        parent=parent,
        height=height,
        subtree_cost=np.asarray(sums, dtype=np.float64),
        subtree_min=np.asarray(mins, dtype=INDEX_DTYPE),
    )


def _candidate_cuts(top: int) -> list:
    """Cut levels to try, largest first (big parallel front, small tail)."""
    if top <= MAX_CANDIDATE_CUTS:
        return list(range(top, 0, -1))
    grid = np.linspace(top, 1, MAX_CANDIDATE_CUTS).round()
    return sorted({int(c) for c in grid}, reverse=True)


def cut_pack(tree: ETree, cost: np.ndarray, p: int, epsilon: float) -> Schedule:
    """Two-level LBC: packed etree subtrees below one cut, tail above it.

    The body of the ``lbc-cut-pack`` pass.  The first cut (largest first)
    whose below-forest has at least ``p`` subtrees packing within
    ``epsilon`` wins; failing that, the cut of least PGP (earliest on ties).
    """
    parent, height = tree.parent, tree.height
    n = parent.shape[0]
    max_h = int(height.max())
    top = max_h + 1
    # a vertex roots a below-cut subtree for the cuts in (h(v), h(parent(v))];
    # a tree root's parent height counts as ``top``, above every candidate
    parent_h = np.where(parent >= 0, height[np.maximum(parent, 0)], top)
    by_min = np.argsort(tree.subtree_min, kind="stable")
    h_s, ph_s = height[by_min], parent_h[by_min]
    cost_s = tree.subtree_cost[by_min]

    best = None  # (cut, root mask over by_min, bin per root)
    best_pgp = np.inf
    for cut in _candidate_cuts(top):
        sel = (h_s < cut) & (ph_s >= cut)
        assignment, loads = first_fit(cost_s[sel].tolist(), p)
        score = pgp_of_loads(loads)
        if len(assignment) >= p and score <= epsilon:
            best = (cut, sel, assignment)
            break
        if score < best_pgp:
            best_pgp = score
            best = (cut, sel, assignment)
    cut, sel, assignment = best

    # One descending pass labels every vertex with its component's root: a
    # vertex below the cut whose parent is at or above it roots a subtree,
    # a tail vertex hangs in its tree's tail; parent(v) > v is done first.
    par, hl = parent.tolist(), height.tolist()
    comp = list(range(n))
    for v in range(n - 1, -1, -1):
        w = par[v]
        if w >= 0 and not hl[w] >= cut > hl[v]:
            comp[v] = comp[w]
    comp_of = np.asarray(comp, dtype=INDEX_DTYPE)
    cores = np.arange(p, dtype=INDEX_DTYPE)

    bin_of = np.zeros(n, dtype=INDEX_DTYPE)
    bin_of[by_min[sel]] = assignment
    below = np.nonzero(height < cut)[0]
    levels = [bucket_level(below, bin_of[comp_of[below]], cores)]
    tail = np.nonzero(height >= cut)[0]
    if tail.shape[0]:
        # tail components are whole trees' tops, packed by smallest member
        _, first, inverse = np.unique(comp_of[tail], return_index=True, return_inverse=True)
        rank = np.empty_like(first)
        rank[np.argsort(first, kind="stable")] = np.arange(first.shape[0])
        item = rank[inverse]
        weights = np.bincount(item, weights=cost[tail], minlength=first.shape[0])
        tail_bins, _ = first_fit(weights.tolist(), p)
        levels.append(bucket_level(tail, np.asarray(tail_bins, dtype=INDEX_DTYPE)[item], cores))

    return Schedule(
        n=n,
        **stack_levels(levels),
        sync="barrier",
        algorithm="lbc",
        n_cores=p,
        meta={"cut_level": int(cut), "n_tree_levels": top},
    )
