"""Connected components via a vectorized Shiloach-Vishkin variant.

HDagg's step 2 repeatedly finds the connected components (edges treated as
undirected) of the subgraph induced by a *range of wavefronts* (Algorithm 1,
Line 25).  The paper uses a Shiloach-Vishkin [12] variant; we implement the
classic hook-and-jump scheme with NumPy array operations so each round is a
constant number of vectorized passes over the edge arrays — the same
data-parallel structure as the original PRAM algorithm.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..sparse.csr import INDEX_DTYPE
from .dag import DAG

__all__ = [
    "shiloach_vishkin",
    "connected_components_of_subset",
    "components_as_lists",
]


def shiloach_vishkin(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Component label of each of ``n`` vertices given undirected edges.

    Labels are the minimum vertex id of the component, so they are
    deterministic and stable across runs.

    Implementation: iterated *hooking* (point the parent of the larger-rooted
    endpoint at the smaller root) followed by full *pointer jumping* until a
    fixed point.  Each round is O(E + V) vectorized work and at least halves
    the depth of the parent forest, giving the familiar O(E log V) total.
    """
    parent = np.arange(n, dtype=INDEX_DTYPE)
    if src.size == 0:
        return parent
    src = np.asarray(src, dtype=INDEX_DTYPE)
    dst = np.asarray(dst, dtype=INDEX_DTYPE)
    while True:
        ps, pd = parent[src], parent[dst]
        lo = np.minimum(ps, pd)
        hi = np.maximum(ps, pd)
        active = lo != hi
        if not np.any(active):
            break
        # Hook: parent[hi] = min over all incident lo.  np.minimum.at gives a
        # deterministic result regardless of edge order.
        np.minimum.at(parent, hi[active], lo[active])
        # Pointer jumping to full compression.
        while True:
            pp = parent[parent]
            if np.array_equal(pp, parent):
                break
            parent = pp
    return parent


#: Subsets up to this size take the union-find over Python lists; above it
#: the vectorised hook-and-jump rounds win.
SMALL_SUBSET = 64


def _union_find_labels(m: int, src: list, dst: list) -> np.ndarray:
    """Dense component labels ordered by smallest member, on Python lists."""
    root = list(range(m))
    for a, b in zip(src, dst):
        while root[a] != a:
            root[a] = a = root[root[a]]
        while root[b] != b:
            root[b] = b = root[root[b]]
        if a < b:
            root[b] = a
        elif b < a:
            root[a] = b
    # roots are smallest members, so each is labelled before its members
    labels = [0] * m
    k = 0
    for i in range(m):
        r = i
        while root[r] != r:
            r = root[r]
        if r == i:
            labels[i] = k
            k += 1
        else:
            labels[i] = labels[r]
    return np.asarray(labels, dtype=INDEX_DTYPE)


def connected_components_of_subset(g: DAG, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Components of the subgraph of ``g`` induced by ``vertices``.

    Returns ``(labels, verts)`` where ``verts`` is ``vertices`` sorted
    ascending and ``labels[k]`` is the component label (a *local* index,
    0-based, ordered by smallest member id) of ``verts[k]``.

    Only edges with both endpoints inside the subset are considered, matching
    ``CC(W[cut:i])`` in Algorithm 1.  The work is proportional to the
    subset and its out-edges, not to ``g.n``.
    """
    verts = np.sort(np.asarray(vertices, dtype=INDEX_DTYPE))
    m = verts.shape[0]
    if m == 0:
        return np.empty(0, dtype=INDEX_DTYPE), verts
    # gather out-edges of subset vertices; an edge stays when its head is in
    # the subset, found by binary search in the sorted ``verts``
    starts = g.indptr[verts]
    counts = g.indptr[verts + 1] - starts
    total = int(counts.sum())
    if total:
        cum = np.cumsum(counts)
        within = np.arange(total, dtype=INDEX_DTYPE) - np.repeat(cum - counts, counts)
        dst_g = g.indices[np.repeat(starts, counts) + within]
        dst_l = np.searchsorted(verts, dst_g)
        np.minimum(dst_l, m - 1, out=dst_l)
        keep = verts[dst_l] == dst_g
        src_l = np.repeat(np.arange(m, dtype=INDEX_DTYPE), counts)[keep]
        dst_l = dst_l[keep]
    else:
        src_l = dst_l = np.empty(0, dtype=INDEX_DTYPE)
    if m <= SMALL_SUBSET:
        return _union_find_labels(m, src_l.tolist(), dst_l.tolist()), verts
    roots = shiloach_vishkin(m, src_l, dst_l)
    # densify root labels to 0..k-1 ordered by root (== smallest member id)
    uniq, labels = np.unique(roots, return_inverse=True)
    return labels.astype(INDEX_DTYPE), verts


def components_as_lists(g: DAG, vertices: np.ndarray) -> List[np.ndarray]:
    """Components of the induced subgraph as a list of sorted id arrays.

    Ordered by smallest member id, which keeps downstream bin packing
    deterministic ("smallest ID first" spatial-locality rule, Section IV-C).
    """
    labels, verts = connected_components_of_subset(g, vertices)
    if verts.size == 0:
        return []
    order = np.argsort(labels, kind="stable")
    sorted_labels = labels[order]
    sorted_verts = verts[order]
    boundaries = np.nonzero(np.diff(sorted_labels))[0] + 1
    return [np.ascontiguousarray(part) for part in np.split(sorted_verts, boundaries)]
