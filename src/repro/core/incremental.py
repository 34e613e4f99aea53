"""Incremental re-inspection: repair a schedule after a small pattern change.

Solver pipelines re-factorize: a few rows of the factor change (pivot
perturbation, partial refactorization, mesh-local updates) while the rest
of the sparsity pattern — and therefore the dependence DAG, the subtree
grouping, and most of the LBP walk — is untouched.  A full re-inspection
pays the whole Algorithm-1 pipeline again; this module repairs the cached
inspection instead:

1. :class:`PatternDelta` names the row-level difference (rows added,
   removed, or retained-with-changed-columns) via a monotone old→new row
   map; :func:`diff_dag` builds one and :func:`changed_rows` extracts the
   structurally-changed retained rows.
2. :func:`repair_schedule` re-runs only the cheap global stages (two-hop
   reduction, subtree grouping — both fractions of the pipeline), then
   *diffs* everything downstream: it matches old groups to new groups,
   marks the dirty ones, splices the coarsened DAG ``G''`` row-by-row
   (clean rows are id-remapped from the old ``G''``), re-walks LBP only
   across the dirty wavefront window (reusing the old walk's prefix and
   suffix verbatim — the walk's state fully resets at every cut, so clean
   cut-to-cut spans replay bit-for-bit), and expands the spliced flat
   LBP result in a few array passes.
3. :func:`repairable` decides, from a pass group's repair plan alone,
   whether this splice applies to it, :func:`repair_pays` whether it pays
   on this platform; when both hold, the schedule cache's reuse ladder
   (:meth:`~repro.core.schedule_cache.ScheduleCache.acquire`) turns an
   exact-key miss whose *parameter family* (kernel, algorithm, ``p``,
   ``epsilon``, backend, options) was seen before into a repair instead of
   a full inspection.

The contract is strict: when ``mode == "repaired"`` the output schedule is
**bit-identical** to a full re-inspection of the new pattern (enforced by
the hypothesis suite in ``tests/core/test_incremental.py``).  Every guard
that cannot cheaply prove identity falls back to ``mode == "full"``, which
is simply a fresh :func:`inspect_with_artifacts` call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from hashlib import sha256
from typing import Dict, List, Optional

import numpy as np

from ..graph.coarsen import Grouping, identity_grouping
from ..graph.dag import DAG, gather_slices
from ..graph.wavefronts import compute_wavefronts
from ..passes import (
    PassContext,
    PassGroup,
    RepairPlan,
    build_hdagg_group,
    plan_repair,
    run_group,
    run_scheduler,
    seed_context,
)
from ..sparse.csr import INDEX_DTYPE
from .backends import active_tier
from .backends.compiled import wavefronts_compiled
from .hdagg import _grouping_csr, expand_lbp_to_schedule
from .lbp import LBPDecision, LBPResult, _FlatBuilder, _Walk
from .pgp import DEFAULT_EPSILON
from .schedule import Schedule
from .schedule_cache import ScheduleCache

__all__ = [
    "PatternDelta",
    "diff_dag",
    "changed_rows",
    "InspectionArtifacts",
    "inspect_with_artifacts",
    "artifacts_from_context",
    "RepairResult",
    "repair_schedule",
    "repairable",
    "repair_pays",
    "IncrementalScheduleCache",
    "family_key",
]

_FAMILY_KEY_VERSION = b"repro-family-key-v1\0"

#: the passes :func:`repair_schedule` splices; a pattern delta dirties these inputs
_SPLICE = ("coarsen", "lbp", "expand")
_DIRTY = ("DAG", "Cost")

#: pipeline options a repair understands; anything else forces a full run
_DEFAULT_OPTIONS = {
    "aggregate": True,
    "transitive_reduce": True,
    "bin_pack": True,
    "group_cost_cap_fraction": 0.25,
    "sync": "barrier",
}


# ----------------------------------------------------------------------
# Pattern deltas
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PatternDelta:
    """Row-level difference between an old and a new sparsity pattern.

    ``row_map[i]`` is the new row id of old row ``i``, or ``-1`` when the
    row was removed.  The map must be strictly increasing over retained
    rows — row insertion and deletion preserve the relative order of the
    survivors, which is what lets the repair path reuse sorted vertex
    arrays without re-sorting.  New rows are exactly the new ids missing
    from the map's image.
    """

    n_old: int
    n_new: int
    row_map: np.ndarray

    def __post_init__(self) -> None:
        rm = np.ascontiguousarray(self.row_map, dtype=INDEX_DTYPE)
        object.__setattr__(self, "row_map", rm)
        if rm.shape[0] != self.n_old:
            raise ValueError(f"row_map has length {rm.shape[0]}, expected {self.n_old}")
        kept = rm[rm >= 0]
        if kept.size:
            if int(kept.max()) >= self.n_new:
                raise ValueError("row_map target out of range")
            if kept.size > 1 and np.any(np.diff(kept) <= 0):
                raise ValueError("row_map must be strictly increasing on retained rows")

    @classmethod
    def identity(cls, n: int) -> "PatternDelta":
        """Same row count, same numbering (columns may still have changed)."""
        return cls(n, n, np.arange(n, dtype=INDEX_DTYPE))

    @property
    def retained_old(self) -> np.ndarray:
        """Old ids of retained rows (ascending)."""
        return np.flatnonzero(self.row_map >= 0).astype(INDEX_DTYPE, copy=False)

    @property
    def retained_new(self) -> np.ndarray:
        """New ids of retained rows, aligned with :attr:`retained_old`."""
        return self.row_map[self.retained_old]

    @property
    def removed(self) -> np.ndarray:
        """Old ids of removed rows."""
        return np.flatnonzero(self.row_map < 0).astype(INDEX_DTYPE, copy=False)

    @property
    def added(self) -> np.ndarray:
        """New ids of added rows."""
        mask = np.ones(self.n_new, dtype=bool)
        mask[self.retained_new] = False
        return np.flatnonzero(mask).astype(INDEX_DTYPE, copy=False)

    @property
    def is_identity(self) -> bool:
        """True when no rows were added or removed (ids are unchanged)."""
        return self.n_old == self.n_new and self.removed.size == 0


def diff_dag(g_old: DAG, g_new: DAG, row_map: Optional[np.ndarray] = None) -> PatternDelta:
    """Delta between two dependence DAGs.

    Without ``row_map`` the DAGs must have equal vertex counts and rows
    are matched by id; pass an explicit map when rows were inserted or
    deleted (the caller knows the renumbering, the DAGs alone do not).
    """
    if row_map is None:
        if g_old.n != g_new.n:
            raise ValueError(
                f"row_map required when vertex counts differ ({g_old.n} vs {g_new.n})"
            )
        return PatternDelta.identity(g_old.n)
    return PatternDelta(g_old.n, g_new.n, np.asarray(row_map, dtype=INDEX_DTYPE))


def changed_rows(g_old: DAG, g_new: DAG, delta: PatternDelta) -> np.ndarray:
    """New ids of retained rows whose out-edge lists differ.

    Old targets are pushed through ``delta.row_map`` before comparison, so
    an edge to a removed vertex — or to a renumbered one that moved — reads
    as a change.  Fully vectorized: rows with equal lengths are compared as
    one flat gather, mismatches mapped back to their row via ``np.repeat``.
    """
    old_ids = delta.retained_old
    new_ids = delta.row_map[old_ids]
    if old_ids.size == 0:
        return np.empty(0, dtype=INDEX_DTYPE)
    cnt_old = g_old.indptr[old_ids + 1] - g_old.indptr[old_ids]
    cnt_new = g_new.indptr[new_ids + 1] - g_new.indptr[new_ids]
    diff_len = cnt_old != cnt_new
    same = ~diff_len
    sel_old, sel_new = old_ids[same], new_ids[same]
    bad = np.zeros(sel_old.shape[0], dtype=bool)
    a = gather_slices(g_old.indptr, g_old.indices, sel_old)
    if a.size:
        b = gather_slices(g_new.indptr, g_new.indices, sel_new)
        mismatch = delta.row_map[a] != b
        if mismatch.any():
            rows = np.repeat(
                np.arange(sel_old.shape[0], dtype=INDEX_DTYPE), cnt_old[same]
            )
            bad[np.bincount(rows[mismatch], minlength=sel_old.shape[0]) > 0] = True
    return np.sort(np.concatenate((new_ids[diff_len], sel_new[bad])))


# ----------------------------------------------------------------------
# Inspection artifacts
# ----------------------------------------------------------------------
@dataclass
class InspectionArtifacts:
    """Every intermediate Algorithm-1 product, kept for later repair."""

    g: DAG
    cost: np.ndarray
    p: int
    epsilon: float
    g_base: DAG  # reduced DAG (== g when reduction/aggregation disabled)
    grouping: Grouping
    g2: DAG  # coarsened DAG G''
    group_cost: np.ndarray
    lbp: LBPResult
    schedule: Schedule
    options: dict = field(default_factory=lambda: dict(_DEFAULT_OPTIONS))


def inspect_with_artifacts(
    g: DAG,
    cost: np.ndarray,
    p: int,
    epsilon: float = DEFAULT_EPSILON,
    **options,
) -> InspectionArtifacts:
    """Full HDagg inspection that keeps its intermediates.

    Identical to :func:`repro.core.hdagg.hdagg` (same pipeline call, same
    schedule) but returns the stage products a later
    :func:`repair_schedule` needs.  ``options`` accepts the :func:`hdagg`
    keyword switches (``aggregate``, ``transitive_reduce``, ``bin_pack``,
    ``group_cost_cap_fraction``, ``sync``).
    """
    unknown = set(options) - set(_DEFAULT_OPTIONS)
    if unknown:
        raise TypeError(f"unknown inspection options: {sorted(unknown)}")
    opts = dict(_DEFAULT_OPTIONS)
    opts.update(options)
    ctx = run_scheduler(
        _group(opts), g, cost, p, epsilon,
        group_cost_cap_fraction=opts["group_cost_cap_fraction"], sync=opts["sync"],
    )
    return artifacts_from_context(ctx, g, p, epsilon, opts)


def artifacts_from_context(
    ctx: PassContext, g: DAG, p: int, epsilon: float, options: Optional[dict] = None
) -> InspectionArtifacts:
    """The :class:`InspectionArtifacts` of one finished hdagg pass-group run."""
    empty_lbp = _FlatBuilder(p).result(compute_wavefronts(DAG.empty(0)), [], epsilon, False)
    return InspectionArtifacts(
        g=g,
        cost=ctx["Cost"],
        p=p,
        epsilon=epsilon,
        g_base=ctx["ReducedDAG"] if ctx.has("ReducedDAG") else g,
        grouping=ctx["Grouping"] if ctx.has("Grouping") else identity_grouping(g.n),
        g2=ctx["CoarseDAG"] if ctx.has("CoarseDAG") else DAG.empty(0),
        group_cost=(
            ctx["GroupCost"] if ctx.has("GroupCost") else np.empty(0, dtype=np.float64)
        ),
        lbp=ctx["CoarsenedWaves"] if ctx.has("CoarsenedWaves") else empty_lbp,
        schedule=ctx["Schedule"],
        options=dict(options or _DEFAULT_OPTIONS),
    )


def _group(opts: dict) -> PassGroup:
    """The hdagg pass-group variant for one set of inspection options."""
    return build_hdagg_group(
        aggregate=opts["aggregate"],
        transitive_reduce=opts["transitive_reduce"],
        bin_pack=opts["bin_pack"],
    )


def _splices_here(plan: RepairPlan) -> bool:
    return plan.splice == _SPLICE and not plan.replay


def repairable(group: PassGroup) -> bool:
    """Can :func:`repair_schedule` repair schedules of ``group``?

    Decided from the group's contracts alone: its repair plan for a
    pattern delta must splice exactly the passes this module splices.
    Every other group (the baselines, an injected stand-in) is inspected
    afresh on a near-miss.
    """
    return _splices_here(plan_repair(group, _DIRTY))


def repair_pays() -> bool:
    """True on the numpy tier only.  A repair re-runs transitive reduction,
    aggregation and the expansion and saves only ``coarsen`` and ``lbp``,
    which the compiled stages make cheap: there a full inspection costs
    ~0.4x of a repair, so the schedule cache inspects a near-miss afresh."""
    return active_tier() == "numpy"


@dataclass
class RepairResult:
    """Outcome of :func:`repair_schedule`.

    ``mode`` is ``"repaired"`` (diff-driven splice; output bit-identical
    to a full re-inspection) or ``"full"`` (a guard fired and a fresh
    inspection ran instead — ``stats["reason"]`` says which).  Either way
    ``artifacts`` describes the *new* pattern and can seed the next repair.
    """

    schedule: Schedule
    mode: str
    artifacts: InspectionArtifacts
    stats: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# Repair
# ----------------------------------------------------------------------
def _full_repair(
    old: InspectionArtifacts,
    g_new: DAG,
    cost_new: np.ndarray,
    reason: str,
) -> RepairResult:
    art = inspect_with_artifacts(
        g_new, cost_new, old.p, old.epsilon, **old.options
    )
    return RepairResult(
        schedule=art.schedule, mode="full", artifacts=art, stats={"reason": reason}
    )


def repair_schedule(
    old: InspectionArtifacts,
    g_new: DAG,
    cost_new: np.ndarray,
    delta: Optional[PatternDelta] = None,
    *,
    max_dirty_fraction: float = 0.25,
) -> RepairResult:
    """Repair ``old``'s schedule for the new pattern ``(g_new, cost_new)``.

    ``delta`` relates old rows to new rows; ``None`` means identity when
    the vertex counts match (the factorization-update case) and otherwise
    forces a full inspection.  When more than ``max_dirty_fraction`` of the
    groups are dirty the delta is too large for splicing to pay off and a
    full inspection runs instead.

    The repair recomputes the two cheap global stages exactly (two-hop
    reduction and subtree grouping — both depend globally on the pattern
    via the cost-cap, so recomputing them is what keeps the bit-identity
    proof local), then splices everything downstream around the dirty set.
    The recompute/splice boundary is not hard-coded: it is read off the
    hdagg pass group's declared ``repair`` policies via
    :func:`repro.passes.plan_repair` (a pass whose contracts changed
    policy would make the plan disagree with this implementation, which
    falls back to a full inspection rather than splice wrongly), and the
    plan is stamped into ``stats["plan"]``.
    """
    cost_new = np.asarray(cost_new, dtype=np.float64)
    if cost_new.shape[0] != g_new.n:
        raise ValueError(f"cost has length {cost_new.shape[0]}, expected {g_new.n}")
    if delta is None:
        if g_new.n != old.g.n:
            return _full_repair(old, g_new, cost_new, "row map required for size change")
        delta = PatternDelta.identity(g_new.n)
    if delta.n_old != old.g.n or delta.n_new != g_new.n:
        raise ValueError(
            f"delta shape ({delta.n_old}->{delta.n_new}) does not match "
            f"DAGs ({old.g.n}->{g_new.n})"
        )
    if old.g.n == 0 or g_new.n == 0:
        return _full_repair(old, g_new, cost_new, "empty pattern")
    if old.schedule.fine_grained:
        return _full_repair(old, g_new, cost_new, "fine-grained schedule")
    if old.schedule.n_levels != old.lbp.n_coarsened:
        return _full_repair(old, g_new, cost_new, "schedule/LBP shape mismatch")

    opts = old.options
    p, epsilon = old.p, old.epsilon

    # ---- repair plan from the pass-group contracts --------------------
    # A pattern delta dirties the DAG and Cost inputs; the plan buckets
    # the group's passes by their declared repair policy.  This splice
    # implementation handles exactly {coarsen, lbp, expand} — anything
    # else means the group's contracts moved out from under us.
    group = _group(opts)
    plan = plan_repair(group, _DIRTY)
    if not _splices_here(plan):
        return _full_repair(old, g_new, cost_new, f"unsupported repair plan {plan}")
    plan_stats = {
        "recompute": list(plan.recompute),
        "splice": list(plan.splice),
        "replay": list(plan.replay),
    }

    # ---- exact recompute of the cheap global stages -------------------
    # through the driver's pass runner: contracts, fault points, timing
    ctx = seed_context(
        group, g_new, cost_new, p, epsilon,
        group_cost_cap_fraction=opts["group_cost_cap_fraction"], sync=opts["sync"],
    )
    run_group(group, ctx, plan.recompute)
    g_base_new, grouping_new = ctx["ReducedDAG"], ctx["Grouping"]
    backend = ctx["Backend"]
    # per-pass seconds of the recompute passes, then the repair's own stages
    seconds: Dict[str, float] = ctx.timer.seconds

    # ---- diff: dirty vertices, group matching, dirty groups -----------
    t0 = time.perf_counter()
    ro, rn = delta.retained_old, delta.retained_new
    dirty_vertex = np.zeros(g_new.n, dtype=bool)
    dirty_vertex[changed_rows(old.g_base, g_base_new, delta)] = True
    dirty_vertex[rn[old.cost[ro] != cost_new[rn]]] = True
    dirty_vertex[delta.added] = True

    labels_new = grouping_new.labels
    labels_old = old.grouping.labels
    n_groups_new = grouping_new.n_groups
    n_groups_old = old.grouping.n_groups
    gptr, gflat = _grouping_csr(grouping_new)
    sizes_new = np.diff(gptr)
    # per new group: the old label of every member (or -1 for added rows);
    # a group matches an old one iff the labels agree and the sizes do too
    ol = np.full(g_new.n, -1, dtype=INDEX_DTYPE)
    ol[rn] = labels_old[ro]
    ol_sorted = ol[gflat]
    gmin = np.minimum.reduceat(ol_sorted, gptr[:-1])
    gmax = np.maximum.reduceat(ol_sorted, gptr[:-1])
    sizes_old = np.bincount(labels_old, minlength=n_groups_old)
    matched = (gmin >= 0) & (gmin == gmax)
    matched[matched] &= sizes_old[gmin[matched]] == sizes_new[matched]
    pi_new2old = np.where(matched, gmin, np.int64(-1)).astype(INDEX_DTYPE, copy=False)
    mids = np.flatnonzero(matched)
    if mids.size > 1 and np.any(np.diff(pi_new2old[mids]) <= 0):
        return _full_repair(old, g_new, cost_new, "group renumbering not monotone")
    pi_old2new = np.full(n_groups_old, -1, dtype=INDEX_DTYPE)
    pi_old2new[pi_new2old[mids]] = mids
    identity_pi = (
        n_groups_old == n_groups_new
        and mids.size == n_groups_new
        and bool(np.array_equal(pi_new2old, np.arange(n_groups_new)))
    )

    # a group's G'' row is stale when its membership changed, a member's
    # reduced row or cost changed, or an out-edge target changed label
    dirty_group = ~matched
    dirty_group[labels_new[dirty_vertex]] = True
    src, dst = g_base_new.edge_list()
    gs, gd = labels_new[src], labels_new[dst]
    bad_target = ~matched[gd]
    if bad_target.any():
        dirty_group[gs[bad_target]] = True
    n_dirty = int(dirty_group.sum())
    seconds["diff"] = time.perf_counter() - t0
    if n_dirty > max_dirty_fraction * n_groups_new:
        return _full_repair(
            old,
            g_new,
            cost_new,
            f"dirty fraction {n_dirty}/{n_groups_new} exceeds {max_dirty_fraction}",
        )

    # ---- coarsen splice: G'' rows and group costs ---------------------
    t0 = time.perf_counter()
    clean_ids = np.flatnonzero(~dirty_group)
    old_len = np.diff(old.g2.indptr)
    edge_mask = dirty_group[gs] & (gs != gd)
    if edge_mask.any():
        pair = np.unique(np.stack((gs[edge_mask], gd[edge_mask]), axis=1), axis=0)
        dsrc, ddst = pair[:, 0], pair[:, 1]
    else:
        dsrc = ddst = np.empty(0, dtype=INDEX_DTYPE)
    lengths = np.bincount(dsrc, minlength=n_groups_new).astype(INDEX_DTYPE, copy=False)
    lengths[clean_ids] = old_len[pi_new2old[clean_ids]]
    indptr2 = np.zeros(n_groups_new + 1, dtype=INDEX_DTYPE)
    np.cumsum(lengths, out=indptr2[1:])
    indices2 = np.empty(int(indptr2[-1]), dtype=INDEX_DTYPE)
    if dsrc.size:
        # pairs are sorted by (src, dst); per-src runs land contiguously
        within = np.arange(dsrc.shape[0], dtype=INDEX_DTYPE) - np.searchsorted(
            dsrc, dsrc
        )
        indices2[indptr2[dsrc] + within] = ddst
    if clean_ids.size:
        orow = pi_new2old[clean_ids]
        vals = pi_old2new[gather_slices(old.g2.indptr, old.g2.indices, orow)]
        if vals.size and int(vals.min()) < 0:
            # a clean group's row references an unmatched target group: the
            # dirtiness propagation missed something — never expected, but
            # fall back rather than emit a corrupt DAG
            return _full_repair(old, g_new, cost_new, "clean row maps out of range")
        cnts = old_len[orow]
        total = int(cnts.sum())
        if total:
            cum = np.cumsum(cnts)
            dest = np.repeat(indptr2[clean_ids], cnts) + (
                np.arange(total, dtype=INDEX_DTYPE) - np.repeat(cum - cnts, cnts)
            )
            indices2[dest] = vals
    g2_new = DAG(n_groups_new, indptr2, indices2, check=False)

    group_cost_new = np.empty(n_groups_new, dtype=np.float64)
    group_cost_new[clean_ids] = old.group_cost[pi_new2old[clean_ids]]
    dirty_ids = np.flatnonzero(dirty_group)
    if dirty_ids.size:
        # np.add.at in ascending vertex order over just the dirty groups'
        # members reproduces the full group_costs accumulation bit-for-bit
        acc = np.zeros(n_groups_new, dtype=np.float64)
        vmask = dirty_group[labels_new]
        np.add.at(acc, labels_new[vmask], cost_new[vmask])
        group_cost_new[dirty_ids] = acc[dirty_ids]
    seconds["coarsen"] = time.perf_counter() - t0

    # ---- wavefront cleanliness and the dirty window -------------------
    t0 = time.perf_counter()
    waves_new = wavefronts_compiled(g2_new)
    l_new, l_old = waves_new.n_levels, old.lbp.waves.n_levels
    lvl_new, lvl_old = waves_new.level, old.lbp.waves.level
    group_clean = matched & ~dirty_group
    group_clean &= lvl_old[np.maximum(pi_new2old, 0)] == lvl_new
    m = min(l_old, l_new)
    wave_clean = np.zeros(l_new, dtype=bool)
    if m:
        unclean_at = np.bincount(lvl_new[~group_clean], minlength=l_new)
        wave_clean[:m] = (unclean_at[:m] == 0) & (
            waves_new.sizes()[:m] == old.lbp.waves.sizes()[:m]
        )
    old_lbp = old.lbp
    wave_ptr_old = old_lbp.wave_ptr.tolist()
    old_dec = list(old_lbp.decisions)
    old_cut_index = {lo: k for k, lo in enumerate(wave_ptr_old[:-1])}
    last_old = len(wave_ptr_old) - 2

    def reusable(k: int) -> bool:
        """Can old coarsened wavefront ``k`` replay verbatim?

        Its whole span must be clean, and so must the wave its failed
        merge candidate peeked at (its end); the last old wavefront has no
        failed candidate but must still end the new walk.
        """
        lo, hi = wave_ptr_old[k], wave_ptr_old[k + 1]
        if k == last_old:
            return hi == l_new and bool(np.all(wave_clean[lo:hi]))
        return hi < l_new and bool(np.all(wave_clean[lo : hi + 1]))

    # the old flat arrays under the group renumbering (order-preserving),
    # as lists a replayed wavefront is sliced from
    old_vertices = old_lbp.vertices if identity_pi else pi_old2new[old_lbp.vertices]
    old_vertices = old_vertices.tolist()
    cp, kp = old_lbp.comp_ptr.tolist(), old_lbp.cw_ptr.tolist()
    old_sizes = np.diff(old_lbp.comp_ptr).tolist()
    old_bins = old_lbp.comp_bin.tolist()
    old_loads = old_lbp.loads.tolist()

    # Merge loop over cut-to-cut segments.  Invariant at the top: the full
    # walk on the new inputs has a cut exactly at ``pos`` (or starts
    # there).  Clean old segments cut at an old cut position replay
    # verbatim (the walk's state fully resets at a cut); dirty stretches
    # are re-walked live until they re-synchronise with an old cut.
    out = _FlatBuilder(p)
    dec_new: List[LBPDecision] = []
    n_reused = 0
    walk = None
    pos = 0
    while pos < l_new:
        k = old_cut_index.get(pos)
        if k is not None and reusable(k):
            hi = wave_ptr_old[k + 1]
            c0, c1 = kp[k], kp[k + 1]
            out.add(pos, old_vertices[cp[c0] : cp[c1]], old_sizes[c0:c1],
                    old_bins[c0:c1], old_loads[k])
            n_reused += 1
            # decisions for waves pos+1 .. hi (incl. the cut at hi that
            # ended this segment, when there is one)
            dec_new.extend(old_dec[pos : hi if k != last_old else l_new - 1])
            pos = hi
            continue
        # live walk from the cut at ``pos`` until the next cut
        if walk is None:
            walk = _Walk(g2_new, waves_new, group_cost_new, p, out)
        # Clean-prefix skip: when an old coarsened wavefront also started
        # at ``pos``, every clean wave at its front was merged by the old
        # walk, and the walk state is path-independent (components are
        # canonical minima, packing orders by (root, vertex)).  Seeding
        # the whole clean prefix in one union pass and replaying the old
        # merge decisions verbatim is therefore bit-identical to stepping
        # wave by wave — only the genuinely dirty tail is walked live.
        w = pos + 1
        if k is not None:
            stop_old = min(wave_ptr_old[k + 1], l_new)
            w = pos
            while w < stop_old and wave_clean[w]:
                w += 1
            w = max(w, pos + 1)
        dec_new.extend(old_dec[pos : w - 1])
        pos = walk.segment(pos, w, epsilon, dec_new)

    # Lines 36-38 over the final list; loads of reused wavefronts are the
    # old floats, so the accumulation replays bit-for-bit
    lbp_new = out.result(waves_new, dec_new, epsilon, True)
    lbp_new.fine_grained |= not opts["bin_pack"]
    seconds["lbp"] = time.perf_counter() - t0

    # ---- expansion: a few array passes over the whole result ----------
    t0 = time.perf_counter()
    meta = {
        "n_groups": n_groups_new,
        "n_edges_original": g_new.n_edges,
        "n_edges_reduced": g_base_new.n_edges,
        "n_coarse_vertices": g2_new.n,
        "n_coarse_wavefronts": lbp_new.n_coarsened,
        "n_wavefronts": l_new,
        "accumulated_pgp": lbp_new.accumulated_pgp,
        "cut_positions": lbp_new.cut_positions,
        "epsilon": epsilon,
        "backend": backend,
    }
    schedule = expand_lbp_to_schedule(
        lbp_new, grouping_new, g_new.n, p, sync=opts["sync"], meta=meta
    )
    seconds["expand"] = time.perf_counter() - t0
    schedule.meta["stage_seconds"] = dict(seconds)

    artifacts = InspectionArtifacts(
        g=g_new,
        cost=cost_new,
        p=p,
        epsilon=epsilon,
        g_base=g_base_new,
        grouping=grouping_new,
        g2=g2_new,
        group_cost=group_cost_new,
        lbp=lbp_new,
        schedule=schedule,
        options=dict(opts),
    )
    stats = {
        "n_groups": n_groups_new,
        "n_dirty_groups": n_dirty,
        "n_matched_groups": int(mids.size),
        "n_reused_cws": n_reused,
        "n_live_cws": lbp_new.n_coarsened - n_reused,
        "seconds": seconds,
        "plan": plan_stats,
    }
    return RepairResult(schedule=schedule, mode="repaired", artifacts=artifacts, stats=stats)


# ----------------------------------------------------------------------
# Cache wiring
# ----------------------------------------------------------------------
def family_key(
    *,
    kernel: str = "",
    algorithm: str = "hdagg",
    p: int,
    epsilon: float | None = None,
    backend: str = "",
    label: str = "",
    options: dict | None = None,
) -> str:
    """Digest of one *parameter family* — everything in a schedule key
    except the pattern itself.  Two inspection problems in the same family
    differ only by their DAG, which is exactly when repair applies.

    ``label`` scopes the family to one logical matrix (the harness passes
    the dataset name): unrelated patterns that merely share parameters
    would otherwise repair against each other's artifacts — safe (the
    dirty-fraction guard falls back to a full inspection) but wasted diff
    work.
    """
    payload = repr(
        (
            kernel,
            algorithm,
            int(p),
            None if epsilon is None else float(epsilon),
            backend,
            label,
            sorted((options or {}).items()),
        )
    )
    h = sha256(_FAMILY_KEY_VERSION)
    h.update(payload.encode("utf-8"))
    return h.hexdigest()


#: ``bench/layers.py`` imports the schedule cache under this name
IncrementalScheduleCache = ScheduleCache
