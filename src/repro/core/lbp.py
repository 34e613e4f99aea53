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

:func:`lbp_coarsen` runs the walk on Python scalars: a union-find over
plain lists whose roots carry their component's cost sum, first-fit over
the sorted roots per merge candidate.  The incremental repair re-walks
dirty stretches with the same :class:`_Walk`.  The result is flat
(:class:`LBPResult`): one vertex array in (coarsened wavefront, component,
id) order with pointers, a bin per component and a ``(n_cw, p)`` loads
array, which the expansion and the compiled tier share.
:func:`lbp_coarsen_reference` recomputes every candidate from scratch and
is the oracle; the two agree bit for bit when costs are integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..graph.connected_components import components_as_lists
from ..graph.dag import DAG
from ..graph.wavefronts import Wavefronts, compute_wavefronts
from ..sparse.csr import INDEX_DTYPE
from .binpack import BinPacking, first_fit, first_fit_pack_reference
from .pgp import DEFAULT_EPSILON, pgp, pgp_of_loads
from .schedule import ptr_from_counts

__all__ = [
    "CoarsenedWavefront",
    "LBPDecision",
    "LBPResult",
    "lbp_coarsen",
    "lbp_coarsen_reference",
]


@dataclass
class CoarsenedWavefront:
    """One merged wavefront range with its packing (a view of :class:`LBPResult`).

    ``components`` are arrays of *coarse* vertex ids (ordered by smallest
    member); ``packing.assignment[k]`` is the bin of ``components[k]``.
    """

    wave_lo: int
    wave_hi: int  # exclusive
    components: List[np.ndarray]
    packing: BinPacking

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
    """Outcome of LBP coarsening over ``G''``, as flat arrays.

    Coarsened wavefront ``i`` spans wavefronts ``wave_ptr[i]:wave_ptr[i+1]``
    and owns components ``cw_ptr[i]:cw_ptr[i+1]``.  Component ``k`` is
    ``vertices[comp_ptr[k]:comp_ptr[k+1]]`` (coarse ids, ascending; the
    components of one coarsened wavefront ordered by smallest member) and is
    packed into bin ``comp_bin[k]``.  ``loads[i]`` holds wavefront ``i``'s
    ``p`` bin loads.
    """

    vertices: np.ndarray
    comp_ptr: np.ndarray
    comp_bin: np.ndarray
    cw_ptr: np.ndarray
    wave_ptr: np.ndarray
    loads: np.ndarray  # (n_coarsened, p)
    waves: Wavefronts
    fine_grained: bool
    accumulated_pgp: float
    #: the merge/cut choice made at every wavefront (the paper's Figure 3
    #: highlighted path); empty for <= 1 wavefront
    decisions: List[LBPDecision]

    @classmethod
    def assemble(
        cls, vertices, comp_ptr, comp_bin, cw_ptr, wave_ptr, loads: np.ndarray,
        waves: Wavefronts, decisions: List[LBPDecision], epsilon: float,
        allow_fine_grained: bool,
    ) -> "LBPResult":
        """The result of one walk, with Lines 36-38 applied to its loads:
        the imbalance accumulated across all coarsened wavefronts (means
        and maxes summed in wavefront order) decides fine-grained mode."""
        accumulated, fine = 0.0, False
        if loads.shape[0]:
            total_mean = sum(loads.mean(axis=1).tolist())
            total_max = sum(loads.max(axis=1).tolist())
            accumulated = 1.0 - total_mean / total_max if total_max > 0 else 0.0
            fine = allow_fine_grained and accumulated > epsilon
        return cls(
            vertices=vertices, comp_ptr=comp_ptr, comp_bin=comp_bin, cw_ptr=cw_ptr,
            wave_ptr=wave_ptr, loads=loads, waves=waves, fine_grained=fine,
            accumulated_pgp=accumulated, decisions=decisions,
        )

    @property
    def n_coarsened(self) -> int:
        """Number of coarsened wavefronts."""
        return self.wave_ptr.shape[0] - 1

    @property
    def cut_positions(self) -> List[int]:
        """Wavefront indices where cuts were placed."""
        return self.wave_ptr[1:-1].tolist()

    @property
    def coarsened(self) -> List[CoarsenedWavefront]:
        """Per-wavefront views (component arrays and packings), built on demand."""
        cp, kp, wp = self.comp_ptr.tolist(), self.cw_ptr.tolist(), self.wave_ptr.tolist()
        return [
            CoarsenedWavefront(
                wave_lo=wp[i],
                wave_hi=wp[i + 1],
                components=[self.vertices[cp[k] : cp[k + 1]] for k in range(kp[i], kp[i + 1])],
                packing=BinPacking(self.comp_bin[kp[i] : kp[i + 1]], self.loads[i]),
            )
            for i in range(self.n_coarsened)
        ]


class _FlatBuilder:
    """Emitted coarsened wavefronts, appended as flat Python lists."""

    def __init__(self, p: int) -> None:
        self.p = p
        self.vertices: List[int] = []
        self.sizes: List[int] = []
        self.bins: List[int] = []
        self.n_comps: List[int] = []
        self.wave_lo: List[int] = []
        self.loads: List[float] = []

    def add(
        self, lo: int, vertices: Sequence[int], sizes: Sequence[int],
        bins: Sequence[int], loads: Sequence[float],
    ) -> None:
        """Append the coarsened wavefront starting at wavefront ``lo``."""
        self.wave_lo.append(lo)
        self.vertices.extend(vertices)
        self.sizes.extend(sizes)
        self.bins.extend(bins)
        self.n_comps.append(len(bins))
        self.loads.extend(loads)

    def result(
        self, waves: Wavefronts, decisions: List[LBPDecision], epsilon: float,
        allow_fine_grained: bool,
    ) -> LBPResult:
        return LBPResult.assemble(
            np.asarray(self.vertices, dtype=INDEX_DTYPE),
            ptr_from_counts(self.sizes),
            np.asarray(self.bins, dtype=INDEX_DTYPE),
            ptr_from_counts(self.n_comps),
            np.asarray(self.wave_lo + [waves.n_levels], dtype=INDEX_DTYPE),
            np.asarray(self.loads, dtype=np.float64).reshape(-1, self.p),
            waves, decisions, epsilon, allow_fine_grained,
        )


class _Walk:
    """The LBP walk over one ``G''`` on Python scalars.

    The candidate range ``W[lo:hi]`` is a union-find over plain lists whose
    roots are component minima; each root carries its component's cost sum
    and size, added up in union order.  Extending the range unions only the
    new wavefronts' in-edges whose source is in the range, and a candidate
    is first-fit over the components in ``sorted(roots)`` order — smallest
    member first, as the reference orders them.  Component sums are exact,
    and so equal the reference's ``np.sum`` over sorted members, whenever
    costs are integers with a total below 2^53 (every cost model here).
    """

    def __init__(self, g2: DAG, waves: Wavefronts, cost: np.ndarray, p: int,
                 out: _FlatBuilder) -> None:
        self.p = p
        self.out = out
        self.in_ptr = g2.in_ptr.tolist()
        self.in_idx = g2.in_idx.tolist()
        self.level = waves.level.tolist()
        self.order = waves.order.tolist()
        self.wptr = waves.ptr.tolist()
        self.cost = cost.tolist()
        self.parent = list(range(g2.n))
        self.csum = [0.0] * g2.n
        self.csize = [0] * g2.n
        self.roots: set = set()
        self.lo = self.hi = 0

    def seed(self, lo: int, hi: int) -> None:
        """Reset the range to ``W[lo:hi]`` (entries outside it become stale)."""
        self.lo = self.hi = lo
        self.roots = set()
        self.extend(hi)

    def extend(self, hi: int) -> None:
        """Grow the range to ``W[lo:hi]``."""
        parent, csum, csize, cost = self.parent, self.csum, self.csize, self.cost
        level, in_ptr, in_idx, lo = self.level, self.in_ptr, self.in_idx, self.lo
        wptr, order = self.wptr, self.order
        new = order[wptr[self.hi] : wptr[hi]]
        for v in new:
            parent[v] = v
            csum[v] = cost[v]
            csize[v] = 1
        roots = self.roots
        roots.update(new)
        # wavefront ``lo``'s in-edges all come from below the range
        linked = order[wptr[max(self.hi, lo + 1)] : wptr[max(hi, lo + 1)]]
        self.hi = hi
        for v in linked:
            for s in in_idx[in_ptr[v] : in_ptr[v + 1]]:
                if level[s] < lo:
                    continue
                while parent[s] != s:  # find with path halving
                    parent[s] = s = parent[parent[s]]
                r = v
                while parent[r] != r:
                    parent[r] = r = parent[parent[r]]
                if s == r:
                    continue
                if s > r:
                    s, r = r, s
                parent[r] = s
                csum[s] += csum[r]
                csize[s] += csize[r]
                roots.discard(r)

    def pack(self) -> Tuple[List[int], List[int], List[float], float]:
        """``(roots, bins, loads, pgp)`` of the current range (Lines 23/25)."""
        roots = sorted(self.roots)
        bins, loads = first_fit(list(map(self.csum.__getitem__, roots)), self.p)
        return roots, bins, loads, pgp_of_loads(loads)

    def segment(self, lo: int, hi: int, epsilon: float, decisions: List[LBPDecision]) -> int:
        """Walk from a cut at ``lo`` with ``W[lo:hi]`` already merged: keep
        merging while the PGP stays within ``epsilon`` (Lines 24-35), emit
        the coarsened wavefront, and return where the next one starts."""
        self.seed(lo, hi)
        roots, bins, loads, _ = self.pack()
        n_levels = len(self.wptr) - 1
        i = hi
        while i < n_levels:
            self.extend(i + 1)
            cand = self.pack()
            score = cand[3]
            if score > epsilon:  # Line 26: cut before the wave that broke balance
                decisions.append(LBPDecision(wave=i, pgp=score, merged=False))
                self.seed(lo, i)  # re-derive the emitted range's components
                break
            decisions.append(LBPDecision(wave=i, pgp=score, merged=True))
            roots, bins, loads, _ = cand  # Line 34
            i += 1
        parent, n = self.parent, len(self.parent)
        keys = []
        for v in self.order[self.wptr[lo] : self.wptr[i]]:
            r = v
            while parent[r] != r:
                r = parent[r]
            keys.append(r * n + v)
        keys.sort()  # (component, id) order
        self.out.add(lo, [k % n for k in keys], [self.csize[r] for r in roots], bins, loads)
        return i


def _check_inputs(g2: DAG, cost: np.ndarray, p: int) -> np.ndarray:
    cost = np.asarray(cost, dtype=np.float64)
    if cost.shape[0] != g2.n:
        raise ValueError(f"cost has length {cost.shape[0]}, expected {g2.n}")
    if p < 1:
        raise ValueError("p must be >= 1")
    if not (np.isfinite(cost).all() and (cost >= 0).all()):
        raise ValueError("costs must be finite and non-negative")
    return cost


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

    One scalar walk (:class:`_Walk`) evaluates every merge candidate; its
    decisions, windows, components and packings equal
    :func:`lbp_coarsen_reference`'s, bit for bit when costs are integers.
    """
    cost = _check_inputs(g2, cost, p)
    waves = compute_wavefronts(g2)
    out = _FlatBuilder(p)
    decisions: List[LBPDecision] = []
    walk = _Walk(g2, waves, cost, p, out)
    pos = 0
    while pos < waves.n_levels:
        pos = walk.segment(pos, pos + 1, epsilon, decisions)
    return out.result(waves, decisions, epsilon, allow_fine_grained)


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
    cost = _check_inputs(g2, cost, p)
    waves = compute_wavefronts(g2)
    l = waves.n_levels
    out = _FlatBuilder(p)
    decisions: List[LBPDecision] = []

    def emit(cw: CoarsenedWavefront) -> None:
        out.add(
            cw.wave_lo, np.concatenate(cw.components).tolist(),
            [c.shape[0] for c in cw.components],
            cw.packing.assignment.tolist(), cw.packing.loads.tolist(),
        )

    if l:
        cut = 0
        prev = _pack_range(g2, waves, cost, p, 0, 1)  # Line 23 seed
        for i in range(1, l):
            cand = _pack_range(g2, waves, cost, p, cut, i + 1)  # Line 25
            score = pgp(cand.packing.loads)
            if score > epsilon:  # Line 26
                decisions.append(LBPDecision(wave=i, pgp=score, merged=False))
                emit(prev)  # Lines 27-31 (single wave == prev here)
                cut = i  # cut before the wavefront that broke balance
                prev = _pack_range(g2, waves, cost, p, cut, i + 1)
            else:
                decisions.append(LBPDecision(wave=i, pgp=score, merged=True))
                prev = cand  # Line 34
        emit(prev)
    return out.result(waves, decisions, epsilon, allow_fine_grained)
