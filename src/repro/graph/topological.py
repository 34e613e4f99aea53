"""Topological ordering and acyclicity checks (Kahn's algorithm, vectorized).

Used to validate DAG construction, to drive the general (non id-topological)
paths of the inspectors, and by the DAGP baseline whose coarse partitions
need an explicit topological order.
"""

from __future__ import annotations

import numpy as np

from ..sparse.csr import INDEX_DTYPE
from .dag import DAG, gather_slices

__all__ = ["topological_order", "is_acyclic", "CycleError", "verify_schedule_order"]


class CycleError(ValueError):
    """Raised when a graph expected to be acyclic contains a cycle."""


def topological_order(g: DAG) -> np.ndarray:
    """Return a topological order of ``g`` (Kahn, level-synchronous).

    Frontiers are processed in ascending vertex id, so the order is
    deterministic.  Raises :class:`CycleError` if the graph has a cycle.
    """
    indeg = g.in_degree().copy()
    order = np.empty(g.n, dtype=INDEX_DTYPE)
    frontier = np.nonzero(indeg == 0)[0].astype(INDEX_DTYPE)
    filled = 0
    while frontier.size:
        order[filled : filled + frontier.size] = frontier
        filled += frontier.size
        touched = gather_slices(g.indptr, g.indices, frontier)
        if touched.size:
            dec = np.bincount(touched, minlength=g.n)
            indeg -= dec
            # A vertex enters the next frontier when its in-degree reaches 0
            # in this round (dec > 0 filters out untouched zeros).
            frontier = np.nonzero((indeg == 0) & (dec > 0))[0].astype(INDEX_DTYPE)
        else:
            frontier = np.empty(0, dtype=INDEX_DTYPE)
    if filled != g.n:
        raise CycleError(f"graph has a cycle ({g.n - filled} vertices unreachable)")
    return order


def is_acyclic(g: DAG) -> bool:
    """True when ``g`` contains no directed cycle."""
    try:
        topological_order(g)
        return True
    except CycleError:
        return False


def verify_schedule_order(g: DAG, execution_order: np.ndarray) -> bool:
    """True when ``execution_order`` respects every edge of ``g``.

    ``execution_order`` lists vertex ids in the order they (notionally)
    complete; an edge ``u -> v`` is satisfied when ``u`` appears before ``v``.
    A standalone order check for tests; the executors check orders with
    :func:`repro.kernels.base.check_order` and schedules are verified by
    :mod:`repro.analysis.verifier`.
    """
    execution_order = np.asarray(execution_order, dtype=INDEX_DTYPE)
    if execution_order.shape[0] != g.n or np.any(
        np.sort(execution_order) != np.arange(g.n)
    ):
        raise ValueError("execution_order must be a permutation of the vertices")
    position = np.empty(g.n, dtype=INDEX_DTYPE)
    position[execution_order] = np.arange(g.n, dtype=INDEX_DTYPE)
    src, dst = g.edge_list()
    return bool(np.all(position[src] < position[dst]))
