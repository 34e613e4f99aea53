"""Incremental repair: schedule a near-miss pattern by splicing the last inspection.

Solver pipelines re-factorize: a few rows of the factor change (pivot
perturbation, partial refactorization, mesh-local updates) while the rest
of the sparsity pattern — and therefore most of the dependence DAG, the
subtree grouping, and the LBP walk — is untouched.  The schedule cache's
reuse ladder (:meth:`~repro.core.schedule_cache.ScheduleCache.acquire`)
keeps, per *parameter family* (kernel, algorithm, ``p``, ``epsilon``,
tier, matrix label), what the splice reads of the family's last HDagg
inspection (:class:`InspectionArtifacts`), and turns an exact-key miss
in a known family into :func:`repair_schedule`:

1. the two cheap global stages — two-hop reduction and subtree grouping —
   re-run exactly, through the driver's pass runner;
2. rows are matched by id (a vertex-count change is inspected afresh):
   the diff marks the rows whose reduced out-edges or cost changed, matches
   old groups to new groups, and marks the dirty groups;
3. the coarsened DAG ``G''`` is spliced row by row (clean rows are
   id-remapped from the old ``G''``), LBP is re-walked only across the
   dirty wavefront window (the old walk's prefix and suffix replay
   verbatim — the walk's state fully resets at every cut), and the flat
   LBP result is expanded in a few array passes.

:func:`repairable` decides from a pass group's contracts whether this
splice applies to it, :func:`repair_pays` whether it pays on this platform.

The contract is strict: when ``mode == "repaired"`` the output schedule is
**bit-identical** to a fresh :func:`~repro.core.hdagg.hdagg` inspection of
the new pattern (enforced by the hypothesis suite in
``tests/core/test_incremental.py``).  Every guard that cannot cheaply
prove identity falls back to ``mode == "full"``, a fresh inspection.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from hashlib import sha256
from typing import Dict, List, Tuple

import numpy as np

from ..graph.coarsen import Grouping, identity_grouping
from ..graph.dag import DAG, gather_slices
from ..graph.wavefronts import compute_wavefronts
from ..passes import (
    PassContext,
    PassGroup,
    affected_passes,
    build_hdagg_group,
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

#: the passes :func:`repair_schedule` splices; a pattern change dirties these inputs
_SPLICE = ("coarsen", "lbp", "expand")
_DIRTY = ("DAG", "Cost")

#: above this fraction of dirty groups a splice does not pay and a full
#: inspection runs instead
MAX_DIRTY_FRACTION = 0.25


# ----------------------------------------------------------------------
# Inspection artifacts
# ----------------------------------------------------------------------
@dataclass
class InspectionArtifacts:
    """What :func:`repair_schedule` reads of one HDagg inspection.

    ``g_base`` (the reduced DAG) and ``g2`` (the coarsened DAG ``G''``)
    are kept as out-edge CSR only, without the in-edge caches the stages
    built on them.
    """

    cost: np.ndarray
    p: int
    epsilon: float
    g_base: DAG
    grouping: Grouping
    g2: DAG
    group_cost: np.ndarray
    lbp: LBPResult


def _out_edges(g: DAG) -> DAG:
    """``g`` without its in-edge caches (its frozen arrays are shared)."""
    return DAG(g.n, g.indptr, g.indices, check=False)


def inspect_with_artifacts(
    g: DAG, cost: np.ndarray, p: int, epsilon: float = DEFAULT_EPSILON
) -> Tuple[Schedule, InspectionArtifacts]:
    """A full HDagg inspection and the artifacts a later repair reads.

    The schedule is the one :func:`repro.core.hdagg.hdagg` returns (same
    pass group, same driver).
    """
    ctx = run_scheduler(build_hdagg_group(), g, cost, p, epsilon)
    return ctx["Schedule"], artifacts_from_context(ctx)


def artifacts_from_context(ctx: PassContext) -> InspectionArtifacts:
    """The :class:`InspectionArtifacts` of one finished hdagg pass-group run."""
    p, epsilon = ctx["Cores"], ctx["Epsilon"]
    if ctx["DAG"].n == 0:
        # the driver runs no pass on an empty DAG
        empty = DAG.empty(0)
        lbp = _FlatBuilder(p).result(compute_wavefronts(empty), [], epsilon, False)
        return InspectionArtifacts(
            ctx["Cost"], p, epsilon, empty, identity_grouping(0), empty,
            np.empty(0, dtype=np.float64), lbp,
        )
    return InspectionArtifacts(
        cost=ctx["Cost"],
        p=p,
        epsilon=epsilon,
        g_base=_out_edges(ctx["ReducedDAG"]),
        grouping=ctx["Grouping"],
        g2=_out_edges(ctx["CoarseDAG"]),
        group_cost=ctx["GroupCost"],
        lbp=ctx["CoarsenedWaves"],
    )


def repairable(group: PassGroup) -> bool:
    """Can :func:`repair_schedule` repair schedules of ``group``?

    Decided from the group's contracts alone: the passes a pattern change
    (``DAG`` and ``Cost``) reaches must end in exactly the three this
    module splices.  Every other group (the baselines, an injected
    stand-in) is inspected afresh on a near-miss.
    """
    return affected_passes(group, _DIRTY)[-len(_SPLICE):] == _SPLICE


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
    old: InspectionArtifacts, g_new: DAG, cost_new: np.ndarray, reason: str
) -> RepairResult:
    schedule, art = inspect_with_artifacts(g_new, cost_new, old.p, old.epsilon)
    return RepairResult(schedule, "full", art, {"reason": reason})


def repair_schedule(
    old: InspectionArtifacts, g_new: DAG, cost_new: np.ndarray
) -> RepairResult:
    """Repair ``old``'s schedule for the new pattern ``(g_new, cost_new)``.

    Rows are matched by id, so a change of the vertex count falls back to
    a full inspection, and so does a change that dirties more than
    :data:`MAX_DIRTY_FRACTION` of the groups (splicing would not pay).

    The repair recomputes the two cheap global stages exactly (two-hop
    reduction and subtree grouping — both depend globally on the pattern
    via the cost cap, so recomputing them is what keeps the bit-identity
    proof local), then splices everything downstream around the dirty set.
    """
    cost_new = np.asarray(cost_new, dtype=np.float64)
    if cost_new.shape[0] != g_new.n:
        raise ValueError(f"cost has length {cost_new.shape[0]}, expected {g_new.n}")
    if g_new.n != old.cost.shape[0]:
        return _full_repair(old, g_new, cost_new, "size change")
    if g_new.n == 0:
        return _full_repair(old, g_new, cost_new, "empty pattern")
    p, epsilon = old.p, old.epsilon

    # ---- exact recompute of the cheap global stages -------------------
    # through the driver's pass runner: contracts, fault points, timing
    group = build_hdagg_group()
    ctx = seed_context(group, g_new, cost_new, p, epsilon)
    run_group(group, ctx, [q.name for q in group.passes if q.name not in _SPLICE])
    g_base_new, grouping_new = ctx["ReducedDAG"], ctx["Grouping"]
    # per-pass seconds of the recompute passes, then the repair's own stages
    seconds: Dict[str, float] = ctx.timer.seconds

    # ---- diff: dirty vertices, group matching, dirty groups -----------
    # a row is dirty when its cost or its reduced out-edge list changed;
    # rows of equal length are compared as one flat gather
    t0 = time.perf_counter()
    len_old, len_new = np.diff(old.g_base.indptr), np.diff(g_base_new.indptr)
    dirty_vertex = (len_old != len_new) | (old.cost != cost_new)
    same = np.flatnonzero(~dirty_vertex)
    mismatch = gather_slices(old.g_base.indptr, old.g_base.indices, same) != gather_slices(
        g_base_new.indptr, g_base_new.indices, same
    )
    if mismatch.any():
        dirty_vertex[np.repeat(same, len_new[same])[mismatch]] = True

    labels_new = grouping_new.labels
    labels_old = old.grouping.labels
    n_groups_new = grouping_new.n_groups
    n_groups_old = old.grouping.n_groups
    gptr, gflat = _grouping_csr(grouping_new)
    sizes_new = np.diff(gptr)
    # a new group matches an old one iff all its members had one old label
    # and the old group had as many members
    ol_sorted = labels_old[gflat]
    gmin = np.minimum.reduceat(ol_sorted, gptr[:-1])
    gmax = np.maximum.reduceat(ol_sorted, gptr[:-1])
    sizes_old = np.bincount(labels_old, minlength=n_groups_old)
    matched = gmin == gmax
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
    if n_dirty > MAX_DIRTY_FRACTION * n_groups_new:
        return _full_repair(
            old,
            g_new,
            cost_new,
            f"dirty fraction {n_dirty}/{n_groups_new} exceeds {MAX_DIRTY_FRACTION}",
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
        "backend": ctx["Backend"],
    }
    schedule = expand_lbp_to_schedule(
        lbp_new, grouping_new, g_new.n, p, sync=ctx.options["sync"], meta=meta
    )
    seconds["expand"] = time.perf_counter() - t0
    schedule.meta["stage_seconds"] = dict(seconds)

    artifacts = InspectionArtifacts(
        cost=cost_new,
        p=p,
        epsilon=epsilon,
        g_base=_out_edges(g_base_new),
        grouping=grouping_new,
        g2=_out_edges(g2_new),
        group_cost=group_cost_new,
        lbp=lbp_new,
    )
    stats = {
        "n_groups": n_groups_new,
        "n_dirty_groups": n_dirty,
        "n_matched_groups": int(mids.size),
        "n_reused_cws": n_reused,
        "n_live_cws": lbp_new.n_coarsened - n_reused,
        "seconds": seconds,
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
