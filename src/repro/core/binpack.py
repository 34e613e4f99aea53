"""First-fit bin packing of connected components onto cores.

Section IV-C: "For low overhead packing, HDagg uses a first-fit strategy
where a connected component is assigned to the first bin that is not
balanced [i.e. not yet full].  Along with packing, vertices are ordered
inside bins with the smallest ID first to improve spatial locality."

Items arrive in deterministic order (components sorted by smallest member
id); each goes to the first bin whose load is still below the balanced
target ``total / p``, or — when every bin has reached the target — to the
currently least-loaded bin.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..sparse.csr import INDEX_DTYPE
from .schedule import WidthPartition

__all__ = ["first_fit_pack", "first_fit_pack_reference", "BinPacking"]


class BinPacking:
    """Result of packing items into ``p`` bins.

    Attributes
    ----------
    assignment:
        ``assignment[k]`` is the bin of item ``k``.
    loads:
        Final load per bin (length ``p``; unused bins carry 0).
    """

    __slots__ = ("assignment", "loads")

    def __init__(self, assignment: np.ndarray, loads: np.ndarray) -> None:
        self.assignment = assignment
        self.loads = loads

    @property
    def n_bins_used(self) -> int:
        """Bins that received at least one item."""
        return int(np.count_nonzero(self.loads > 0)) if self.assignment.size else 0

    def items_per_bin(self, p: int) -> List[np.ndarray]:
        """Item indices grouped by bin, preserving arrival order."""
        # one stable sort instead of p full scans of the assignment array
        order = np.argsort(self.assignment, kind="stable").astype(INDEX_DTYPE, copy=False)
        counts = np.bincount(self.assignment, minlength=p)
        ptr = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(counts))).tolist()
        return [np.ascontiguousarray(order[ptr[b] : ptr[b + 1]]) for b in range(p)]

    def partitions(self, components: Sequence[np.ndarray], p: int) -> List[WidthPartition]:
        """One width-partition per used bin, pinned to that bin's core.

        Item ``k`` is ``components[k]``; a bin's vertices are the union of
        its components, smallest id first.
        """
        parts = []
        for core, items in enumerate(self.items_per_bin(p)):
            if items.size == 0:
                continue
            members = np.sort(np.concatenate([components[int(k)] for k in items]))
            parts.append(WidthPartition(core=core, vertices=members))
        return parts

    def pgp(self) -> float:
        """Load-balance PGP of this packing (Equation 1 over the bin loads)."""
        from .pgp import pgp

        return pgp(self.loads)


def first_fit_pack(item_costs: Sequence[float] | np.ndarray, p: int) -> BinPacking:
    """Pack items (in the given order) into ``p`` bins, first-fit by target.

    A bin counts as "balanced" (full) once it reaches its *adaptive* target:
    the cost not yet committed to earlier bins divided by the bins left.
    An item goes to the first unbalanced bin; if every bin is full
    (indivisible items overshoot), the least-loaded bin takes the overflow.

    The adaptive target (rather than a fixed ``total / p``) spreads each
    bin's unavoidable overshoot across the remaining bins instead of
    starving the last one, keeping the max load within one item of optimal.

    Fast path (identical placements to :func:`first_fit_pack_reference`):
    once a bin reaches its target it can never reopen — its load and the
    committed prefix below it are both frozen — so the "first unbalanced
    bin" only moves right and one running pointer replaces the per-item
    scan, making packing O(items + p).

    >>> first_fit_pack([1.0, 1.0, 1.0, 1.0], 2).loads.tolist()
    [2.0, 2.0]
    >>> first_fit_pack([2.0, 2.0, 1.0, 1.0], 2).assignment.tolist()
    [0, 0, 1, 1]
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    costs = np.asarray(item_costs, dtype=np.float64)
    if np.any(costs < 0):
        raise ValueError("item costs must be non-negative")
    loads = [0.0] * p
    assignment = np.empty(costs.shape[0], dtype=INDEX_DTYPE)
    total = float(costs.sum())
    b = 0  # first bin that may still be below its adaptive target
    committed = 0.0  # sum of loads[0:b], frozen once the pointer passes
    for k, c in enumerate(costs.tolist()):
        while b < p and loads[b] >= (total - committed) / (p - b):
            committed += loads[b]
            b += 1
        if b < p:
            placed = b
        else:  # every bin full: overflow to the least-loaded (first minimum)
            placed = min(range(p), key=loads.__getitem__)
        loads[placed] += c
        assignment[k] = placed
    return BinPacking(assignment=assignment, loads=np.asarray(loads, dtype=np.float64))


def first_fit_pack_reference(item_costs: Sequence[float] | np.ndarray, p: int) -> BinPacking:
    """Literal per-item bin scan — the retained oracle for the fast path."""
    if p < 1:
        raise ValueError("p must be >= 1")
    costs = np.asarray(item_costs, dtype=np.float64)
    if np.any(costs < 0):
        raise ValueError("item costs must be non-negative")
    loads = np.zeros(p, dtype=np.float64)
    assignment = np.empty(costs.shape[0], dtype=INDEX_DTYPE)
    total = float(costs.sum())
    for k, c in enumerate(costs):
        placed = -1
        committed = 0.0
        for b in range(p):
            target = (total - committed) / (p - b)
            if loads[b] < target:
                placed = b
                break
            committed += loads[b]
        if placed < 0:
            placed = int(np.argmin(loads))
        loads[placed] += c
        assignment[k] = placed
    return BinPacking(assignment=assignment, loads=loads)
