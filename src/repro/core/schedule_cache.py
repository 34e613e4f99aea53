"""Structure-keyed schedule cache.

Inspector output is a pure function of the dependence DAG's structure and
the scheduling parameters — re-running HDagg on the same sparsity pattern
with the same ``(kernel, algorithm, p, epsilon, options)`` always yields
the same schedule.  Solver pipelines exploit exactly this: a
factorization's pattern is fixed across hundreds of triangular solves, and
amortizing one inspection over them is what makes inspector-executor
frameworks pay off (the paper's NRE metric, Section V-D).

The key is a SHA-256 digest over the CSR structure bytes (``indptr`` and
``indices``) plus a canonical encoding of the parameters; two DAGs collide
only if they are structurally identical, in which case sharing the
schedule is precisely the point.  Entries are kept in LRU order with an
optional capacity bound, and hit/miss counters make cache effectiveness
observable from the harness.

:meth:`ScheduleCache.acquire` is the one schedule-reuse path: memory, then
the persistent store, then an incremental repair of the family's last
inspection, then a fresh inspection down the degradation chain.  The
harness, ``hdagg-bench --store`` and the end-to-end benchmark all call it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from hashlib import sha256
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from ..graph.dag import DAG
from ..observability.state import STATE as _OBS_STATE
from ..resilience.faults import fault_point
from .pgp import DEFAULT_EPSILON
from .schedule import Schedule

if TYPE_CHECKING:  # pragma: no cover
    from .incremental import InspectionArtifacts

__all__ = ["CacheStats", "ScheduleCache", "schedule_key"]

_KEY_VERSION = b"repro-schedule-key-v2\0"


def schedule_key(
    g: DAG,
    *,
    kernel: str = "",
    algorithm: str = "hdagg",
    p: int,
    epsilon: float | None = None,
    cost: np.ndarray | None = None,
    backend: str = "",
    options: dict | None = None,
) -> str:
    """Digest identifying one inspection problem.

    Covers the DAG structure (``indptr``/``indices`` bytes — the full CSR
    pattern), the kernel and algorithm names, the core count, epsilon, the
    tier that ran the compiled stages, and any extra keyword options
    (sorted by name, ``repr``-encoded).  ``cost`` is optional because
    kernels derive it deterministically from the pattern; pass it when
    costs come from elsewhere.  ``backend``
    (:func:`~repro.core.backends.active_tier`) keeps schedules built with
    and without the compiled library in distinct slots — the tiers are
    bit-identical, but the provenance stamped in ``meta["backend"]`` must
    stay exact.
    """
    h = sha256(_KEY_VERSION)
    h.update(np.int64(g.n).tobytes())
    h.update(np.int64(g.n_edges).tobytes())
    h.update(np.ascontiguousarray(g.indptr).tobytes())
    h.update(np.ascontiguousarray(g.indices).tobytes())
    if cost is not None:
        h.update(b"cost\0")
        h.update(np.ascontiguousarray(cost, dtype=np.float64).tobytes())
    params = (
        kernel,
        algorithm,
        int(p),
        None if epsilon is None else float(epsilon),
        str(backend),
        sorted((options or {}).items()),
    )
    h.update(repr(params).encode("utf-8"))
    return h.hexdigest()


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss/entry counters of one :class:`ScheduleCache`."""

    hits: int
    misses: int
    entries: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ScheduleCache:
    """LRU map from :func:`schedule_key` digests to schedules.

    ``max_entries=None`` means unbounded (the harness's per-suite default:
    a suite holds a few hundred schedules at most).  Stored schedules are
    returned as-is — they are treated as immutable by every consumer.

    ``store`` optionally backs the cache with a persistent second tier —
    any object with ``get(key) -> Schedule | None``, ``put(key, schedule)``
    and ``quarantine_key(key, reason)`` (duck-typed so this module never
    imports :mod:`repro.store`; in practice a
    :class:`repro.store.ScheduleStore`).  :meth:`get` reads memory only;
    :meth:`acquire` falls through to the store, and :meth:`put` writes
    through best-effort — a store write failure never fails the caller,
    because the in-memory entry is already good.

    Each *family* (see :func:`repro.core.incremental.family_key`) keeps the
    :class:`~repro.core.incremental.InspectionArtifacts` of its latest
    HDagg inspection, the ancestor :meth:`acquire` repairs a near-miss
    against.  Families are bounded by ``max_entries`` too, in their own
    LRU order: every :meth:`acquire` that repairs against or seeds a
    family makes it the most recent.  ``repairs`` counts repaired schedules
    served; ``repair_fulls`` counts repair attempts that ended in a full
    inspection instead.
    """

    def __init__(self, max_entries: Optional[int] = None, *, store=None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 or None")
        self.max_entries = max_entries
        self.store = store
        self._entries: "OrderedDict[str, Schedule]" = OrderedDict()
        self._families: "OrderedDict[str, InspectionArtifacts]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self.repairs = 0
        self.repair_fulls = 0

    def get(self, key: str) -> Optional[Schedule]:
        """Look up a schedule in memory; counts a hit or a miss.

        The ``schedule_cache.get`` fault site lets chaos runs hand back a
        deterministically corrupted schedule on a hit — :meth:`acquire`
        with ``validate`` must catch it and fall to the next rung.
        """
        entry = self._entries.get(key)
        if entry is None:
            self._misses += 1
            _count("schedule_cache.misses")
            return None
        self._entries.move_to_end(key)
        self._hits += 1
        _count("schedule_cache.hits")
        injected = fault_point("schedule_cache.get", payload=entry, label=key)
        if injected is not None:
            return injected
        return entry

    def invalidate(self, key: str) -> bool:
        """Drop one entry (cache-corruption recovery); True when it existed."""
        return self._entries.pop(key, None) is not None

    def _insert(self, key: str, schedule: Schedule) -> None:
        """Insert into memory, evicting LRU entries past ``max_entries``."""
        self._entries[key] = schedule
        self._entries.move_to_end(key)
        if self.max_entries is not None:
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                _count("schedule_cache.evictions")
        if _OBS_STATE.enabled and _OBS_STATE.registry is not None:
            _OBS_STATE.registry.gauge("schedule_cache.entries").set(len(self._entries))

    def put(self, key: str, schedule: Schedule) -> None:
        """Insert (or refresh) an entry, evicting the LRU one if over capacity.

        With a ``store`` attached the entry is also written through —
        best-effort, because the in-memory copy already serves this
        process and a persistence hiccup must not fail the inspection
        that produced the schedule.
        """
        self._insert(key, schedule)
        if self.store is not None:
            try:
                self.store.put(key, schedule)
            except Exception:
                _count("schedule_cache.store_write_errors")

    def artifacts_for(self, family: str) -> "Optional[InspectionArtifacts]":
        """The family's repair ancestor, or ``None``."""
        return self._families.get(family)

    def _keep_family(self, family: str, artifacts: "InspectionArtifacts") -> None:
        """Make ``family``'s ancestor the most recent, evicting LRU families
        past ``max_entries``."""
        self._families[family] = artifacts
        self._families.move_to_end(family)
        if self.max_entries is not None:
            while len(self._families) > self.max_entries:
                self._families.popitem(last=False)

    # ------------------------------------------------------------------
    # the reuse ladder
    # ------------------------------------------------------------------
    def acquire(
        self,
        key: str,
        family: str,
        g: DAG,
        cost: np.ndarray,
        *,
        p: int,
        epsilon: Optional[float] = DEFAULT_EPSILON,
        algorithm: str = "hdagg",
        validate: bool = False,
    ) -> Tuple[Schedule, str]:
        """Schedule ``(g, cost)`` with ``algorithm``, reusing what is safe to reuse.

        Returns ``(schedule, source)``; ``source`` names the rung that
        served it:

        ``"hit"``
            memory.  With ``validate`` the hit is dependence-checked; a
            refuted hit is invalidated and the request falls through.
        ``"store"``
            the persistent store.  Its records come from outside the
            process, so a hit is always checked with ``assert_schedule_safe``;
            a refuted record is quarantined, never served, and a read
            error is a miss.
        ``"repaired"``
            an incremental repair of the family's last inspection, for a
            ``algorithm`` whose pass group :func:`~repro.core.incremental.repairable`
            accepts where :func:`~repro.core.incremental.repair_pays` (no family
            is kept elsewhere).  A repair that fails (or, with ``validate``,
            is refuted) falls through to inspection.
        ``"full"``
            a fresh inspection — either the repair's own full fallback
            (its guards fired) or :func:`~repro.resilience.degrade.inspect_with_fallback`.
            An HDagg inspection seeds the family; a degraded schedule
            (``schedule.algorithm != algorithm``) is served but never
            cached or persisted.

        With the defaults (no store, no ``validate``) a call verifies
        nothing.
        """
        hit = self.get(key)
        if hit is not None:
            if not validate or _dependence_safe(hit, g):
                return hit, "hit"
            self.invalidate(key)
        if self.store is not None:
            stored = self._from_store(key, g)
            if stored is not None:
                return stored, "store"

        from ..passes import get_pass_group
        from ..resilience.degrade import inspect_with_fallback
        from .incremental import artifacts_from_context, repair_pays, repairable

        can_repair = repair_pays() and repairable(get_pass_group(algorithm))
        old = self._families.get(family) if can_repair else None
        if old is not None:
            repaired = self._repair(key, family, old, g, cost, validate)
            if repaired is not None:
                return repaired
        outcome = inspect_with_fallback(
            algorithm, g, cost, p,
            epsilon=epsilon, validate=validate,
        )
        if not outcome.degraded:
            if can_repair:
                self._keep_family(family, artifacts_from_context(outcome.context))
            self.put(key, outcome.schedule)
        return outcome.schedule, "full"

    def _from_store(self, key: str, g: DAG) -> Optional[Schedule]:
        """Store rung: a verified record, promoted into memory, or ``None``."""
        try:
            stored = self.store.get(key)
        except Exception:
            _count("schedule_cache.store_read_errors")
            return None
        if stored is None:
            return None
        if not _safe(stored, g):
            # decodes fine but unsafe for this DAG (a foreign or stale
            # record under the key): never serve it
            self.store.quarantine_key(key, "failed assert_schedule_safe for the requested DAG")
            return None
        self._insert(key, stored)  # the store already holds it
        _count("schedule_cache.store_hits")
        return stored

    def _repair(self, key, family, old, g, cost, validate):
        """Repair rung: ``(schedule, source)``, or ``None`` to fall through."""
        from .incremental import repair_schedule

        try:
            result = repair_schedule(old, g, cost)
        except Exception:
            result = None
        if result is None or (validate and not _safe(result.schedule, g)):
            self._families.pop(family, None)
            self.repair_fulls += 1
            return None
        if result.mode == "repaired":
            self.repairs += 1
        else:
            self.repair_fulls += 1
        self._keep_family(family, result.artifacts)
        self.put(key, result.schedule)
        return result.schedule, result.mode

    # ------------------------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        return CacheStats(hits=self._hits, misses=self._misses, entries=len(self._entries))

    def clear(self) -> None:
        """Drop all entries and families and reset the counters."""
        self._entries.clear()
        self._families.clear()
        self._hits = 0
        self._misses = 0
        self.repairs = 0
        self.repair_fulls = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries


def _count(name: str) -> None:
    if _OBS_STATE.enabled and _OBS_STATE.registry is not None:
        _OBS_STATE.registry.counter(name).inc()


def _dependence_safe(schedule: Schedule, g: DAG) -> bool:
    """Cheap re-check of a memory hit: one dependence witness is enough."""
    from ..analysis.verifier import verify_dependences

    return verify_dependences(schedule, g, max_witnesses=1, stamp_meta=False).ok


def _safe(schedule: Schedule, g: DAG) -> bool:
    """Full structural and dependence check (stamps ``verify`` seconds)."""
    from ..analysis.verifier import assert_schedule_safe

    try:
        assert_schedule_safe(schedule, g)
    except Exception:
        return False
    return True
