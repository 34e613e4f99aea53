"""Step 2 of HDagg: Load-balance Preserving (LBP) wavefront coarsening.

Algorithm 1, Lines 21-38.  Starting from the first wavefront of the coarsened
DAG ``G''``, LBP keeps merging the next wavefront into the current coarsened
wavefront while the merged range's connected components can be first-fit
bin-packed into ``p`` bins with PGP below the threshold ``ε``.  When a merge
would break balance, the current range is emitted (a *cut*) and coarsening
restarts from the wavefront that broke it.  A range stuck at a single
unbalanced wavefront is emitted as-is (Line 27-28: "Single Unbalanced Wave").

Implementation note: the paper's listing advances ``cut`` to ``i`` in the
general branch, which would drop wavefront ``i-1`` from every range; we keep
it (cut to the first unmerged wavefront and re-pack the single-wave
candidate), which matches the worked example in Figure 2/3 — W1,W2 merge,
W3 and W4 are emitted alone — and the prose "a cut occurs if continuing to
merge with the next wavefront results in load imbalance".

Lines 36-38: if the PGP accumulated across all coarsened wavefronts still
exceeds ``ε``, bin packing is disabled and every connected component becomes
a fine-grained task for the runtime scheduler to balance dynamically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..graph.connected_components import components_as_lists
from ..graph.dag import DAG, gather_slices
from ..graph.wavefronts import Wavefronts, compute_wavefronts
from .binpack import BinPacking, first_fit_pack, first_fit_pack_reference
from .pgp import DEFAULT_EPSILON, pgp

__all__ = [
    "CoarsenedWavefront",
    "LBPDecision",
    "LBPResult",
    "lbp_coarsen",
    "lbp_coarsen_reference",
]


@dataclass
class CoarsenedWavefront:
    """One merged wavefront range with its packing.

    ``components`` are arrays of *coarse* vertex ids (ordered by smallest
    member); ``packing.assignment[k]`` is the bin of ``components[k]``.
    """

    wave_lo: int
    wave_hi: int  # exclusive
    components: List[np.ndarray]
    packing: BinPacking

    @property
    def n_waves(self) -> int:
        return self.wave_hi - self.wave_lo

    @property
    def pgp(self) -> float:
        return self.packing.pgp()


@dataclass
class LBPDecision:
    """One step of the Figure-3 decision walk: try to merge wavefront ``wave``."""

    wave: int
    pgp: float
    merged: bool


@dataclass
class LBPResult:
    """Outcome of LBP coarsening over ``G''``."""

    coarsened: List[CoarsenedWavefront]
    waves: Wavefronts
    fine_grained: bool
    accumulated_pgp: float
    #: the merge/cut choice made at every wavefront (the paper's Figure 3
    #: highlighted path); empty for <= 1 wavefront
    decisions: List[LBPDecision] = None

    @property
    def cut_positions(self) -> List[int]:
        """Wavefront indices where cuts were placed."""
        return [cw.wave_lo for cw in self.coarsened[1:]]


def _pack_range(
    g2: DAG, waves: Wavefronts, cost: np.ndarray, p: int, lo: int, hi: int
) -> CoarsenedWavefront:
    """``BinPack(CC(W[lo:hi]), C, p)`` — Lines 23/25 of Algorithm 1, from
    scratch, with the reference loops throughout."""
    verts = waves.vertices_in_range(lo, hi)
    components = components_as_lists(g2, verts)
    comp_costs = np.array([float(cost[c].sum()) for c in components], dtype=np.float64)
    packing = first_fit_pack_reference(comp_costs, p)
    return CoarsenedWavefront(wave_lo=lo, wave_hi=hi, components=components, packing=packing)


@dataclass
class _RangeCandidate:
    """One evaluated merge candidate: packing now, component lists on demand."""

    wave_lo: int
    wave_hi: int
    sorted_verts: np.ndarray  # range vertices sorted by (component, id)
    boundaries: np.ndarray  # component starts within ``sorted_verts`` (without 0)
    packing: BinPacking

    def materialize(self) -> CoarsenedWavefront:
        """Build the emitted :class:`CoarsenedWavefront` (lists built here only)."""
        sv = self.sorted_verts
        if sv.size == 0:
            components: List[np.ndarray] = []
        else:
            # plain slice pairs, not np.split: split's per-piece swapaxes
            # overhead dominates when components are tiny and plentiful
            cuts = self.boundaries.tolist()
            starts = [0] + cuts
            ends = cuts + [sv.shape[0]]
            components = [np.ascontiguousarray(sv[a:b]) for a, b in zip(starts, ends)]
        return CoarsenedWavefront(
            wave_lo=self.wave_lo,
            wave_hi=self.wave_hi,
            components=components,
            packing=self.packing,
        )


class _RangeComponents:
    """Incremental ``CC(W[lo:hi])`` over a growing wavefront range.

    LBP only ever *extends* the candidate range by one wavefront or resets
    it to a single wavefront after a cut, so the connected components are
    maintained with a warm-started hook-and-jump union over just the edges
    the newest wavefront brings in, instead of re-running Shiloach-Vishkin
    over the whole range for every merge candidate.  Roots are component
    minima (hooking always points at the smaller root), reproducing the
    from-scratch labels exactly.
    """

    def __init__(self, g2: DAG, waves: Wavefronts, cost: np.ndarray, p: int) -> None:
        self.g2 = g2
        self.waves = waves
        self.cost = cost
        self.p = p
        self.level = waves.level
        self.parent = np.arange(g2.n, dtype=self.level.dtype)
        self.lo = 0
        self.hi = 0
        self.verts = np.empty(0, dtype=self.parent.dtype)

    def seed(self, lo: int, hi: int) -> None:
        """Reset the range to ``W[lo:hi]`` (entries outside it become stale)."""
        self.lo, self.hi = lo, hi
        self.verts = self.waves.vertices_in_range(lo, hi)
        self.parent[self.verts] = self.verts
        self._union_incoming(self.verts)

    def extend(self, new_hi: int) -> None:
        """Grow the range to ``W[lo:new_hi]``."""
        new_verts = self.waves.vertices_in_range(self.hi, new_hi)
        self.hi = new_hi
        self.parent[new_verts] = new_verts
        self.verts = np.concatenate((self.verts, new_verts))
        self._union_incoming(new_verts)

    def _union_incoming(self, new_verts: np.ndarray) -> None:
        """Union the in-edges of ``new_verts`` whose source is inside the range."""
        g2 = self.g2
        counts = g2.in_ptr[new_verts + 1] - g2.in_ptr[new_verts]
        srcs = gather_slices(g2.in_ptr, g2.in_idx, new_verts)
        if srcs.size == 0:
            return
        dsts = np.repeat(new_verts, counts)
        keep = self.level[srcs] >= self.lo  # sources above lo are in range
        srcs, dsts = srcs[keep], dsts[keep]
        parent = self.parent
        while srcs.size:
            ps, pd = parent[srcs], parent[dsts]
            lo_r = np.minimum(ps, pd)
            hi_r = np.maximum(ps, pd)
            active = lo_r != hi_r
            if not np.any(active):
                break
            np.minimum.at(parent, hi_r[active], lo_r[active])
            v = self.verts
            while True:
                pv = parent[v]
                ppv = parent[pv]
                if np.array_equal(ppv, pv):
                    break
                parent[v] = ppv

    def candidate(self) -> _RangeCandidate:
        """Evaluate the current range: component costs and first-fit packing.

        Component costs reproduce the reference's ``cost[members].sum()``
        bit for bit (same gathered array, same ``np.sum`` pairwise
        reduction), so packing decisions and the epsilon comparison can
        never drift by a summation-order ulp.  Length-1/2 segments — the
        overwhelming majority — are summed directly (provably identical to
        ``np.sum`` there); longer segments call ``np.sum`` per segment.
        """
        roots = self.parent[self.verts]
        # single int64 key sort == lexsort((verts, roots)): verts are unique,
        # so root*n + vert orders by (root, vert) with no stability concerns
        order = np.argsort(roots * np.int64(self.g2.n) + self.verts)
        sv = np.ascontiguousarray(self.verts[order])
        sr = roots[order]
        if sv.size == 0:
            boundaries = np.empty(0, dtype=np.int64)
        else:
            boundaries = np.flatnonzero(sr[1:] != sr[:-1]) + 1
        starts = np.concatenate((np.zeros(1, dtype=np.int64), boundaries))
        ends = np.concatenate((boundaries, np.array([sv.shape[0]], dtype=np.int64)))
        lengths = ends - starts
        cost_sv = self.cost[sv]
        comp_costs = np.empty(starts.shape[0], dtype=np.float64)
        one = lengths == 1
        comp_costs[one] = cost_sv[starts[one]]
        two = lengths == 2
        comp_costs[two] = cost_sv[starts[two]] + cost_sv[starts[two] + 1]
        for k in np.flatnonzero(lengths > 2).tolist():
            comp_costs[k] = cost_sv[starts[k] : ends[k]].sum()
        if sv.size == 0:
            comp_costs = np.empty(0, dtype=np.float64)
        packing = first_fit_pack(comp_costs, self.p)
        return _RangeCandidate(
            wave_lo=self.lo,
            wave_hi=self.hi,
            sorted_verts=sv,
            boundaries=boundaries,
            packing=packing,
        )


def lbp_coarsen(
    g2: DAG,
    cost: np.ndarray,
    p: int,
    epsilon: float = DEFAULT_EPSILON,
    *,
    allow_fine_grained: bool = True,
) -> LBPResult:
    """Run LBP on the coarsened DAG ``g2`` with per-coarse-vertex ``cost``.

    Parameters mirror Algorithm 1: ``p`` is the core count, ``epsilon`` the
    load-balance threshold.  ``allow_fine_grained=False`` suppresses the
    Lines 36-38 fallback (used by ablation benchmarks).

    Fast path: merge candidates share one incremental component structure
    (see :class:`_RangeComponents`); the decision walk and every emitted
    coarsened wavefront match :func:`lbp_coarsen_reference`.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.shape[0] != g2.n:
        raise ValueError(f"cost has length {cost.shape[0]}, expected {g2.n}")
    waves = compute_wavefronts(g2)
    l = waves.n_levels
    coarsened: List[CoarsenedWavefront] = []
    decisions: List[LBPDecision] = []
    if l == 0:
        return LBPResult(
            coarsened=[], waves=waves, fine_grained=False,
            accumulated_pgp=0.0, decisions=decisions,
        )

    cc = _RangeComponents(g2, waves, cost, p)
    cc.seed(0, 1)
    prev = cc.candidate()  # Line 23 seed
    i = 1
    while i < l:
        cc.extend(i + 1)
        cand = cc.candidate()  # Line 25
        score = pgp(cand.packing.loads)
        if score > epsilon:  # Line 26
            decisions.append(LBPDecision(wave=i, pgp=score, merged=False))
            coarsened.append(prev.materialize())  # Lines 27-31
            cc.seed(i, i + 1)  # cut before the wavefront that broke balance
            prev = cc.candidate()
        else:
            decisions.append(LBPDecision(wave=i, pgp=score, merged=True))
            prev = cand  # Line 34
        i += 1
    coarsened.append(prev.materialize())

    # Lines 36-38: accumulated imbalance across the whole schedule.
    total_mean = sum(float(cw.packing.loads.mean()) for cw in coarsened)
    total_max = sum(float(cw.packing.loads.max()) for cw in coarsened)
    accumulated = 1.0 - total_mean / total_max if total_max > 0 else 0.0
    fine = allow_fine_grained and accumulated > epsilon
    return LBPResult(
        coarsened=coarsened, waves=waves, fine_grained=fine,
        accumulated_pgp=accumulated, decisions=decisions,
    )


def lbp_coarsen_reference(
    g2: DAG,
    cost: np.ndarray,
    p: int,
    epsilon: float = DEFAULT_EPSILON,
    *,
    allow_fine_grained: bool = True,
) -> LBPResult:
    """Per-candidate from-scratch LBP with reference first-fit packing —
    the retained oracle for the fast path."""
    cost = np.asarray(cost, dtype=np.float64)
    if cost.shape[0] != g2.n:
        raise ValueError(f"cost has length {cost.shape[0]}, expected {g2.n}")
    waves = compute_wavefronts(g2)
    l = waves.n_levels
    coarsened: List[CoarsenedWavefront] = []
    decisions: List[LBPDecision] = []
    if l == 0:
        return LBPResult(
            coarsened=[], waves=waves, fine_grained=False,
            accumulated_pgp=0.0, decisions=decisions,
        )

    cut = 0
    prev = _pack_range(g2, waves, cost, p, 0, 1)  # Line 23 seed
    i = 1
    while i < l:
        cand = _pack_range(g2, waves, cost, p, cut, i + 1)  # Line 25
        score = pgp(cand.packing.loads)
        if score > epsilon:  # Line 26
            decisions.append(LBPDecision(wave=i, pgp=score, merged=False))
            coarsened.append(prev)  # Lines 27-31 (single wave == prev here)
            cut = i  # cut before the wavefront that broke balance
            prev = _pack_range(g2, waves, cost, p, cut, i + 1)
        else:
            decisions.append(LBPDecision(wave=i, pgp=score, merged=True))
            prev = cand  # Line 34
        i += 1
    coarsened.append(prev)

    # Lines 36-38: accumulated imbalance across the whole schedule.
    total_mean = sum(float(cw.packing.loads.mean()) for cw in coarsened)
    total_max = sum(float(cw.packing.loads.max()) for cw in coarsened)
    accumulated = 1.0 - total_mean / total_max if total_max > 0 else 0.0
    fine = allow_fine_grained and accumulated > epsilon
    return LBPResult(
        coarsened=coarsened, waves=waves, fine_grained=fine,
        accumulated_pgp=accumulated, decisions=decisions,
    )
