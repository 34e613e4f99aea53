"""Mutation harness: inject known-unsafe schedule edits, assert detection.

A verifier is only as good as its ability to *fail* — a checker that
certifies everything is indistinguishable from one that works until the
schedule it waves through corrupts a factorisation under load.  This module
provides four mutation classes, each modelled on a real inspector bug, and
a sweep that asserts every applicable mutation is caught by the dependence
verifier or the race detector:

``swap_across_dependence``
    Exchange the slots of the two endpoints of a cross-partition DAG edge
    (the classic transposed-assignment bug): the consumer now runs a whole
    wavefront before its producer.
``drop_barrier``
    Fuse two adjacent coarsened wavefronts joined by a cross-partition
    edge into one (a lost ``barrier.wait()``), re-numbering cores so the
    result is structurally pristine — only the dependence analyses can see
    the problem.
``reorder_within_partition``
    Swap two dependent vertices inside one width-partition (a broken
    intra-partition topological sort).  Invisible to the race detector by
    design — same partition means sequential — so this class pins the
    verifier's position ordering.
``merge_adjacent_wavefronts``
    Per-core concatenation of two adjacent wavefronts (unsafe coarsening,
    exactly what HDagg's LBP must *not* do): an edge whose endpoints sit on
    different cores becomes a same-wavefront cross-partition dependence.

Every mutant stays structurally valid (full cover, unique cores per level)
— mutations that a cheap shape check could catch would not exercise the
dependence analyses at all.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.schedule import Schedule
from ..graph.dag import DAG
from .footprint import Footprint
from .races import detect_races
from .verifier import verify_dependences

__all__ = ["MutationResult", "MUTATIONS", "apply_mutation", "run_mutation_suite"]


def _clone_levels(schedule: Schedule) -> List[List[Tuple[int, np.ndarray]]]:
    """The schedule as editable levels of ``(core, vertices)`` pairs."""
    order = schedule.order.copy()
    ptr, cores, lp = schedule.part_ptr, schedule.part_core.tolist(), schedule.level_ptr
    return [
        [(cores[j], order[ptr[j] : ptr[j + 1]]) for j in range(lp[k], lp[k + 1])]
        for k in range(schedule.n_levels)
    ]


def _rebuild(schedule: Schedule, levels: List[List[Tuple[int, np.ndarray]]], tag: str) -> Schedule:
    return Schedule.from_partitions(
        schedule.n,
        [
            [(c, v) for c, v in level if v.shape[0]]
            for level in levels
            if any(v.shape[0] for _, v in level)
        ],
        sync=schedule.sync,
        algorithm=f"{schedule.algorithm}+{tag}",
        n_cores=schedule.n_cores,
        fine_grained=schedule.fine_grained,
        meta={"mutation": tag},
    )


def _mutant(schedule: Schedule, tag: str, **arrays: np.ndarray) -> Schedule:
    """``schedule`` with some of its arrays replaced, tagged as a mutant."""
    return replace(
        schedule, **arrays, algorithm=f"{schedule.algorithm}+{tag}", meta={"mutation": tag}
    )


def _swapped(schedule: Schedule, u: int, v: int, tag: str) -> Schedule:
    """``schedule`` with vertices ``u`` and ``v`` exchanging slots."""
    order = schedule.order.copy()
    at_u, at_v = np.flatnonzero(order == u)[0], np.flatnonzero(order == v)[0]
    order[at_u], order[at_v] = v, u
    return _mutant(schedule, tag, order=order)


def _cross_partition_edges(schedule: Schedule, g: DAG) -> Tuple[np.ndarray, np.ndarray]:
    """Edges whose endpoints are in different width-partitions."""
    src, dst = g.edge_list()
    pid = schedule.partition_of()
    keep = pid[src] != pid[dst]
    return src[keep], dst[keep]


def swap_across_dependence(
    schedule: Schedule, g: DAG, rng: np.random.Generator
) -> Optional[Schedule]:
    """Exchange the slots of a cross-partition edge's endpoints."""
    src, dst = _cross_partition_edges(schedule, g)
    if src.shape[0] == 0:
        return None
    e = int(rng.integers(src.shape[0]))
    return _swapped(schedule, int(src[e]), int(dst[e]), "swap_across_dependence")


def _levels_with_cross_edge(schedule: Schedule, g: DAG, *, same_core: bool) -> List[int]:
    """Level indices ``k`` with an edge into level ``k+1`` that lands on a
    different partition (and, for ``same_core=False``, a different core)."""
    src, dst = g.edge_list()
    level, pid, _ = schedule.coordinates()
    core = schedule.core_assignment()
    adjacent = level[dst] == level[src] + 1
    cross = pid[src] != pid[dst]
    if not same_core:
        cross &= core[src] != core[dst]
    ks = np.unique(level[src][adjacent & cross])
    return [int(k) for k in ks]


def drop_barrier(schedule: Schedule, g: DAG, rng: np.random.Generator) -> Optional[Schedule]:
    """Fuse levels ``k`` and ``k+1`` (kept as separate partitions)."""
    candidates = _levels_with_cross_edge(schedule, g, same_core=True)
    if not candidates:
        return None
    k = int(candidates[int(rng.integers(len(candidates)))])
    lp = schedule.level_ptr
    # renumber cores: duplicate core ids within a level are a *structural*
    # defect, which would let the shape check mask the dependence bug
    part_core = schedule.part_core.copy()
    part_core[lp[k] : lp[k + 2]] = np.arange(lp[k + 2] - lp[k])
    return _mutant(schedule, "drop_barrier", part_core=part_core, level_ptr=np.delete(lp, k + 1))


def reorder_within_partition(
    schedule: Schedule, g: DAG, rng: np.random.Generator
) -> Optional[Schedule]:
    """Swap a dependent pair inside one width-partition."""
    src, dst = g.edge_list()
    pid = schedule.partition_of()
    intra = pid[src] == pid[dst]
    if not np.any(intra):
        return None
    picks = np.nonzero(intra)[0]
    e = int(picks[int(rng.integers(picks.shape[0]))])
    return _swapped(schedule, int(src[e]), int(dst[e]), "reorder_within_partition")


def merge_adjacent_wavefronts(
    schedule: Schedule, g: DAG, rng: np.random.Generator
) -> Optional[Schedule]:
    """Per-core concatenation of levels ``k`` and ``k+1`` (unsafe coarsening)."""
    candidates = _levels_with_cross_edge(schedule, g, same_core=False)
    if not candidates:
        return None
    k = int(candidates[int(rng.integers(len(candidates)))])
    levels = _clone_levels(schedule)
    by_core: Dict[int, List[np.ndarray]] = {}
    order: List[int] = []
    for idx, (core, verts) in enumerate(levels[k] + levels[k + 1]):
        slot = core if core >= 0 else -(idx + 1)  # dynamic partitions stay separate
        if slot not in by_core:
            by_core[slot] = []
            order.append(slot)
        by_core[slot].append(verts)
    merged = [
        (slot if slot >= 0 else -1, np.concatenate(by_core[slot])) for slot in order
    ]
    levels[k : k + 2] = [merged]
    return _rebuild(schedule, levels, "merge_adjacent_wavefronts")


#: mutation class name -> mutator ``(schedule, g, rng) -> Schedule | None``.
MUTATIONS: Dict[str, Callable[[Schedule, DAG, np.random.Generator], Optional[Schedule]]] = {
    "swap_across_dependence": swap_across_dependence,
    "drop_barrier": drop_barrier,
    "reorder_within_partition": reorder_within_partition,
    "merge_adjacent_wavefronts": merge_adjacent_wavefronts,
}


@dataclass
class MutationResult:
    """Outcome of injecting one mutation class into one schedule."""

    name: str
    applied: bool
    caught: bool
    caught_by: Tuple[str, ...] = ()
    detail: str = ""

    @property
    def escaped(self) -> bool:
        """An applied mutation no analysis flagged — the bad outcome."""
        return self.applied and not self.caught


def apply_mutation(
    name: str, schedule: Schedule, g: DAG, *, seed: int = 0
) -> Optional[Schedule]:
    """Apply one named mutation; ``None`` when inapplicable to this schedule."""
    return MUTATIONS[name](schedule, g, np.random.default_rng(seed))


def run_mutation_suite(
    schedule: Schedule,
    g: DAG,
    fp: Optional[Footprint] = None,
    *,
    seed: int = 0,
    names: Optional[List[str]] = None,
) -> List[MutationResult]:
    """Inject every mutation class; record which analysis caught each.

    A mutant counts as *caught* when the dependence verifier refutes it or
    (footprint given) the race detector flags it.  Inapplicable mutations
    (e.g. no intra-partition edge to reorder in a pure wavefront schedule)
    are reported with ``applied=False`` and do not count against the kill
    rate.
    """
    results: List[MutationResult] = []
    for name in names if names is not None else sorted(MUTATIONS):
        mutant = apply_mutation(name, schedule, g, seed=seed)
        if mutant is None:
            results.append(MutationResult(name=name, applied=False, caught=False))
            continue
        caught_by: List[str] = []
        detail = ""
        dep = verify_dependences(mutant, g, max_witnesses=1, stamp_meta=False)
        if not dep.ok:
            caught_by.append("verifier")
            detail = dep.witnesses[0].describe() if dep.witnesses else (dep.structural_error or "")
        if fp is not None:
            races = detect_races(mutant, fp, max_witnesses=1, stamp_meta=False)
            if not races.ok:
                caught_by.append("races")
                if not detail and races.witnesses:
                    detail = races.witnesses[0].describe()
        results.append(
            MutationResult(
                name=name,
                applied=True,
                caught=bool(caught_by),
                caught_by=tuple(caught_by),
                detail=detail,
            )
        )
    return results
