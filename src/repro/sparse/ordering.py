"""Symmetric fill-reducing / bandwidth-reducing orderings.

The paper reorders every input with METIS before handing it to any of the
schedulers (Section V).  METIS itself is a native library; this module
provides stand-ins that play the same role in the pipeline:

* :func:`rcm` — reverse Cuthill-McKee bandwidth reduction;
* :func:`nested_dissection` — recursive BFS-bisection ND, the same family of
  ordering METIS_NodeND computes;
* :func:`natural` / :func:`random_permutation` — controls for ablations.

The symmetrised adjacency is built with NumPy; the breadth-first sweeps then
run over plain Python lists (one ``tolist()`` per call), because a BFS is
one vertex at a time by nature and per-vertex NumPy indexing costs more than
the work it does.

All functions return a permutation ``perm`` with the convention used by
:meth:`repro.sparse.csr.CSRMatrix.permute_symmetric`: new index ``k``
corresponds to old index ``perm[k]``.
"""

from __future__ import annotations

import numpy as np

from .csr import CSRMatrix, INDEX_DTYPE

__all__ = ["rcm", "nested_dissection", "natural", "random_permutation", "apply_ordering"]


def _neighbours(a: CSRMatrix) -> list[list[int]]:
    """Neighbour lists (ids increasing) of the symmetrised pattern, no self-loops.

    The union of the patterns of A and A^T is one sort of the 1-D keys
    ``row * n + col``, repeats dropped: sorted, they run row by row,
    columns increasing.  (A plain ``np.unique`` on 1-D integers hashes,
    which is many times slower than the sort here.)
    """
    n = a.n_rows
    rows = np.repeat(np.arange(n, dtype=INDEX_DTYPE), a.row_nnz())
    keep = rows != a.indices
    rows, cols = rows[keep], a.indices[keep]
    keys = np.sort(np.concatenate([rows * n + cols, cols * n + rows]))
    if keys.size:
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    ptr = np.searchsorted(keys, np.arange(n + 1, dtype=INDEX_DTYPE) * n).tolist()
    idx = (keys % n).tolist()
    return [idx[ptr[v] : ptr[v + 1]] for v in range(n)]


def _bfs(nbrs: list, tag: list, dist: list, root: int, inside: int, mark: int) -> list[int]:
    """BFS from ``root`` over the vertices tagged ``inside``, retagging them ``mark``.

    Returns the FIFO visit order (neighbours by increasing id) and leaves
    each visited vertex's distance from ``root`` in ``dist``; distances are
    non-decreasing along the order.
    """
    tag[root] = mark
    dist[root] = 0
    order = [root]
    append = order.append
    for v in order:  # the loop also visits what it appends: a FIFO queue
        d = dist[v] + 1
        for w in nbrs[v]:
            if tag[w] == inside:
                tag[w] = mark
                dist[w] = d
                append(w)
    return order


def _pseudo_peripheral(nbrs: list, tag: list, dist: list, start: int) -> int:
    """Find a pseudo-peripheral vertex by repeated BFS (George-Liu).

    ``start``'s component must be tagged ``0``; the sweeps leave it tagged
    ``0`` or ``1``.
    """
    u, last_ecc, inside = start, -1, 0
    for _ in range(len(nbrs)):
        far = _bfs(nbrs, tag, dist, u, inside, 1 - inside)[-1]
        inside = 1 - inside
        if dist[far] <= last_ecc:
            return u
        last_ecc = dist[far]
        u = far
    return u


def rcm(a: CSRMatrix) -> np.ndarray:
    """Reverse Cuthill-McKee ordering of the symmetrised pattern of ``a``.

    Visits components in order of their smallest vertex id, starts each from
    a pseudo-peripheral vertex, and enqueues neighbours by increasing degree.
    Deterministic: ties break on vertex id.
    """
    n = a.n_rows
    nbrs = _neighbours(a)
    degree = [len(ws) for ws in nbrs]
    # 0: unvisited, 1: visited by a peripheral sweep only, 2: ordered
    tag = [0] * n
    dist = [0] * n
    order: list[int] = []
    for seed in range(n):
        if tag[seed]:
            continue
        root = _pseudo_peripheral(nbrs, tag, dist, seed)
        tag[root] = 2
        queue = [root]
        for v in queue:  # the loop also visits what it appends: a FIFO
            ws = [w for w in nbrs[v] if tag[w] != 2]
            # stable sort of an id-sorted list: (degree, id) order
            ws.sort(key=degree.__getitem__)
            for w in ws:
                tag[w] = 2
            queue.extend(ws)
        order.extend(queue)
    return np.array(order[::-1], dtype=INDEX_DTYPE)


def nested_dissection(a: CSRMatrix, *, leaf_size: int = 64) -> np.ndarray:
    """Recursive BFS-bisection nested dissection ordering.

    Each subproblem is split by BFS level halving: a BFS from its smallest
    vertex finds the farthest vertex, a second BFS from there gives the
    level structure, and the level that first covers half of the reached
    vertices becomes the separator.  Vertices the sweeps do not reach (other
    components) join the far side.  Separators are numbered last within
    their subproblem (the defining property of ND, which keeps factorisation
    DAGs shallow and bushy).  Subproblems of at most ``leaf_size`` vertices,
    and subproblems whose split leaves one side empty, are emitted in
    sorted-id order.
    """
    n = a.n_rows
    nbrs = _neighbours(a)
    out: list[int] = []

    # A subproblem is ``(ids, lo, t, size)``: its vertices are those tagged
    # ``t`` in the sorted list ``ids[lo:]``.  A split retags only the reached
    # near side and the separator; the far side keeps the parent's tag, list
    # and size bookkeeping, so peeling one small component off a graph with
    # thousands of them costs the component, not the rest.
    tag = [0] * n
    dist = [0] * n
    fresh = 1
    # Explicit work stack (left, right, then separator emitted last within
    # each subproblem).  Lopsided splits — one tiny side plus a huge rest —
    # would drive plain recursion O(n) deep on chain- and hub-like graphs.
    stack: list = [(list(range(n)), 0, 0, n)]
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            out.extend(item)
            continue
        ids, lo, t, size = item
        while lo < len(ids) and tag[ids[lo]] != t:
            lo += 1
        if size <= leaf_size:
            out.extend(v for v in ids[lo:] if tag[v] == t)
            continue
        far = _bfs(nbrs, tag, dist, ids[lo], t, fresh)[-1]
        order = _bfs(nbrs, tag, dist, far, fresh, t)
        # The separator is the BFS level holding the order's middle vertex
        # (the first level that covers half of the reached vertices).
        mid = (len(order) - 1) // 2
        level = dist[order[mid]]
        s0, s1 = mid, mid + 1
        while s0 and dist[order[s0 - 1]] == level:
            s0 -= 1
        while s1 < len(order) and dist[order[s1]] == level:
            s1 += 1
        if s0 == 0 or s1 == size:
            # Degenerate split (e.g. complete graph): stop recursing.
            out.extend(v for v in ids[lo:] if tag[v] == t)
            continue
        left, sep = sorted(order[:s0]), sorted(order[s0:s1])
        for v in left:
            tag[v] = fresh
        for v in sep:
            tag[v] = -1
        stack.append(sep)
        stack.append((ids, lo, t, size - s1))
        stack.append((left, 0, fresh, s0))
        fresh += 1
    perm = np.array(out, dtype=INDEX_DTYPE)
    if perm.shape[0] != n or np.any(np.sort(perm) != np.arange(n)):
        raise AssertionError("nested dissection produced an invalid permutation")
    return perm


def natural(a: CSRMatrix) -> np.ndarray:
    """Identity ordering (ablation control)."""
    return np.arange(a.n_rows, dtype=INDEX_DTYPE)


def random_permutation(a: CSRMatrix, *, seed: int = 0) -> np.ndarray:
    """Uniformly random ordering (ablation control)."""
    rng = np.random.default_rng(seed)
    return rng.permutation(a.n_rows).astype(INDEX_DTYPE)


def apply_ordering(a: CSRMatrix, method: str = "nd", **kwargs) -> tuple[CSRMatrix, np.ndarray]:
    """Reorder ``a`` symmetrically; returns ``(permuted_matrix, perm)``.

    ``method`` is one of ``"rcm"``, ``"nd"``, ``"natural"``, ``"random"``.
    This is the stand-in for the paper's METIS pre-pass, applied identically
    to all schedulers.
    """
    methods = {
        "rcm": rcm,
        "nd": nested_dissection,
        "natural": natural,
        "random": random_permutation,
    }
    if method not in methods:
        raise ValueError(f"unknown ordering {method!r}; expected one of {sorted(methods)}")
    if not a.is_square:
        raise ValueError("symmetric permutation requires a square matrix")
    perm = methods[method](a, **kwargs)
    return a.permute_symmetric(perm), perm
