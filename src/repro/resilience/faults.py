"""Deterministic, seeded fault injection.

Production hardening of an inspector-executor pipeline is only testable if
the failures themselves are reproducible: a chaos run that cannot be
replayed bit-for-bit cannot gate CI.  This module follows the mutation
harness's playbook (:mod:`repro.analysis.mutate`) — every injected fault is
chosen by a seeded RNG and fires at a *named site* on a *counted
occurrence*, so the same :class:`FaultPlan` always produces the same
failures in the same places.

The hook is :func:`fault_point`: instrumented code calls
``fault_point("site", payload=..., label=...)`` at each site; when no plan
is armed the call is a single module-global ``None`` check (the resilience
layer's dormant cost), and when a plan is armed the plan decides whether
this occurrence fires and with which action:

``raise``
    raise a :class:`FaultError` naming the site (hung-free failure path);
``stall``
    sleep ``duration`` seconds (a slow inspector or inspector stage);
``corrupt``
    return a deterministically corrupted variant of ``payload`` (malformed
    CSR inputs for :func:`repro.sparse.sanitize.sanitize_csr`, broken
    schedules from the schedule cache);
``exit``
    hard-kill the process via ``os._exit`` (fork pool-worker death, which
    fails the grid run at once).

This module intentionally imports nothing from the rest of :mod:`repro`
so any layer (sparse, core, runtime, suite) can instrument itself without
import cycles.
"""

from __future__ import annotations

import os
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "FAULT_SITES",
    "CSR_CORRUPTIONS",
    "FaultError",
    "FaultSpec",
    "FaultEvent",
    "FaultPlan",
    "fault_point",
    "active_plan",
    "armed",
    "set_fault_observer",
    "corrupt_csr_arrays",
    "corrupt_schedule",
    "truncate_blob",
    "bit_flip_blob",
]

#: Every instrumented site and the actions it supports.  Keeping the
#: registry explicit makes a typo'd site name a construction-time error
#: rather than a fault that silently never fires.
FAULT_SITES: Dict[str, Tuple[str, ...]] = {
    # harness inspection of one (algorithm, machine) cell
    "inspector": ("raise", "stall"),
    # inside one named HDagg inspector stage (label: the stage name); the
    # stall lands within that stage's StageTimer window
    "inspector.stage": ("stall",),
    # core stepper (run_cores): before each vertex (label: the core)
    "executor.worker": ("raise",),
    # harness matrix preparation (payload: the built CSRMatrix)
    "harness.prepare": ("corrupt",),
    # schedule-cache hit (payload: the cached Schedule)
    "schedule_cache.get": ("corrupt",),
    # fork pool worker, before running its matrix
    "pool.worker": ("exit", "raise"),
    # run_matrix entry (suite-level isolation tests)
    "suite.matrix": ("raise",),
    # persistent schedule store: between the temp-file write and the
    # rename (payload: the encoded record bytes).  ``corrupt`` truncates
    # the bytes that reach disk (a torn write that became visible);
    # ``raise`` simulates a kill before the rename (temp litter only)
    "store.torn_write": ("raise", "corrupt"),
    # persistent schedule store: silent media corruption of the record
    # bytes before they are written (payload: the encoded record bytes)
    "store.bit_flip": ("corrupt",),
    # persistent schedule store: kill between the record rename and the
    # manifest update (the record exists on disk, the index missed it)
    "store.stale_manifest": ("raise",),
}

#: Malformed-CSR classes :func:`corrupt_csr_arrays` can produce.
CSR_CORRUPTIONS = (
    "indptr_regression",
    "col_out_of_range",
    "col_duplicate",
    "nan_data",
    "inf_data",
    "drop_diagonal",
)

#: Exit status used by the ``exit`` action so tests can tell an injected
#: worker death from an organic crash.
FAULT_EXIT_CODE = 70


class FaultError(RuntimeError):
    """An injected fault fired with the ``raise`` action.

    Attributes ``site``, ``label``, and ``occurrence`` identify exactly
    which :func:`fault_point` call fired, so chaos tests can assert the
    failure surfaced from the intended site.
    """

    def __init__(self, site: str, *, label: Optional[str] = None, occurrence: int = 0) -> None:
        detail = f" (label={label!r})" if label is not None else ""
        super().__init__(f"injected fault at site {site!r}, occurrence {occurrence}{detail}")
        self.site = site
        self.label = label
        self.occurrence = occurrence

    # pool workers send exceptions back pickled: rebuild from the
    # constructor's arguments, not from ``args`` (the formatted message)
    def __reduce__(self):
        return partial(type(self), label=self.label, occurrence=self.occurrence), (self.site,)


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: where, what, and on which occurrences.

    ``at`` is the zero-based occurrence index (per site, counted across the
    plan's lifetime) of the first firing; ``times`` is how many consecutive
    occurrences fire (``-1`` means every occurrence from ``at`` on).
    ``match`` restricts firing to calls whose ``label`` equals it — e.g.
    one specific matrix name or core id.
    """

    site: str
    action: str
    at: int = 0
    times: int = 1
    match: Optional[str] = None
    duration: float = 0.25

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(f"unknown fault site {self.site!r}; known: {sorted(FAULT_SITES)}")
        if self.action not in FAULT_SITES[self.site]:
            raise ValueError(
                f"site {self.site!r} does not support action {self.action!r} "
                f"(supported: {FAULT_SITES[self.site]})"
            )
        if self.at < 0:
            raise ValueError("at must be >= 0")
        if self.times == 0 or self.times < -1:
            raise ValueError("times must be positive or -1 (unbounded)")

    def fires_at(self, occurrence: int, label: Optional[str]) -> bool:
        """True when this spec fires for the given site occurrence."""
        if self.match is not None and self.match != label:
            return False
        if occurrence < self.at:
            return False
        return self.times == -1 or occurrence < self.at + self.times


@dataclass(frozen=True)
class FaultEvent:
    """Log entry of one fired fault (kept on ``FaultPlan.fired``)."""

    site: str
    action: str
    occurrence: int
    label: Optional[str] = None


class FaultPlan:
    """A seeded, deterministic set of faults to inject.

    The plan owns one ``random.Random(seed)`` used for every corruption
    decision, and per-site occurrence counters, so two runs armed with
    ``FaultPlan(specs, seed=s)`` inject byte-identical faults.  Arm it with
    :func:`armed` (a context manager); :func:`fault_point` consults the
    armed plan.
    """

    def __init__(self, specs: Sequence[FaultSpec], *, seed: int = 0) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self.seed = int(seed)
        self.rng = random.Random(self.seed)
        self.fired: List[FaultEvent] = []
        self._counts: Dict[str, int] = {}
        self._by_site: Dict[str, List[FaultSpec]] = {}
        for spec in self.specs:
            self._by_site.setdefault(spec.site, []).append(spec)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @classmethod
    def chaos(
        cls,
        seed: int,
        *,
        sites: Sequence[str] = ("inspector", "harness.prepare", "schedule_cache.get", "suite.matrix"),
        n_faults: int = 3,
        stall_seconds: float = 0.05,
    ) -> "FaultPlan":
        """A deterministic random plan for chaos runs (``--faults SEED``).

        Draws ``n_faults`` (site, action, occurrence) triples from the
        in-process sites — the defaults exclude the ``exit`` and executor
        sites, which only make sense under a pool or the core stepper.
        """
        rng = random.Random(int(seed))
        specs = []
        for _ in range(n_faults):
            site = rng.choice(list(sites))
            action = rng.choice(FAULT_SITES[site])
            specs.append(
                FaultSpec(
                    site,
                    action,
                    at=rng.randrange(0, 6),
                    duration=stall_seconds,
                )
            )
        return cls(specs, seed=seed)

    # ------------------------------------------------------------------
    def fire(self, site: str, *, payload: Any = None, label: Optional[str] = None) -> Any:
        """Decide and execute the fault (if any) for one site occurrence.

        Returns a corrupted payload for ``corrupt`` actions, else ``None``.
        Raises :class:`FaultError` for ``raise`` actions.
        """
        specs = self._by_site.get(site)
        if not specs:
            return None
        with self._lock:
            occurrence = self._counts.get(site, 0)
            self._counts[site] = occurrence + 1
            matched = [s for s in specs if s.fires_at(occurrence, label)]
            if not matched:
                return None
            for spec in matched:
                self.fired.append(FaultEvent(site, spec.action, occurrence, label))
        observer = _OBSERVER
        if observer is not None:
            for spec in matched:
                observer(site, spec.action, label)
        result = None
        for spec in matched:
            if spec.action == "raise":
                raise FaultError(site, label=label, occurrence=occurrence)
            if spec.action == "stall":
                time.sleep(spec.duration)
            elif spec.action == "exit":
                os._exit(FAULT_EXIT_CODE)
            elif spec.action == "corrupt":
                with self._lock:
                    result = self._corrupt(site, payload)
        return result

    def _corrupt(self, site: str, payload: Any) -> Any:
        if payload is None:
            return None
        if site == "harness.prepare":
            mode = self.rng.choice(CSR_CORRUPTIONS)
            return corrupt_csr_arrays(payload, mode, self.rng)
        if site == "schedule_cache.get":
            return corrupt_schedule(payload, self.rng)
        if site == "store.torn_write":
            return truncate_blob(payload, self.rng)
        if site == "store.bit_flip":
            return bit_flip_blob(payload, self.rng)
        return None

    def describe(self) -> str:
        """One line per planned fault — for chaos-run logs."""
        lines = [f"FaultPlan(seed={self.seed}, {len(self.specs)} faults):"]
        for s in self.specs:
            window = "all" if s.times == -1 else f"{s.at}..{s.at + s.times - 1}"
            match = f" match={s.match!r}" if s.match else ""
            lines.append(f"  {s.site}: {s.action} @ occurrence {window}{match}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# corruption primitives (deterministic under the plan's RNG)
# ----------------------------------------------------------------------
def corrupt_csr_arrays(a, mode: str, rng: random.Random):
    """Return ``(n_rows, n_cols, indptr, indices, data)`` with one defect.

    ``a`` is any CSR-shaped object (``n_rows``/``n_cols``/``indptr``/
    ``indices``/``data`` attributes).  The result is raw arrays — it cannot
    be a :class:`~repro.sparse.csr.CSRMatrix`, whose constructor enforces
    the very invariants being broken — ready to feed ``sanitize_csr``.
    """
    indptr = np.array(a.indptr, dtype=np.int64, copy=True)
    indices = np.array(a.indices, dtype=np.int64, copy=True)
    data = np.array(a.data, dtype=np.float64, copy=True)
    n_rows, n_cols = int(a.n_rows), int(a.n_cols)
    nnz = indices.shape[0]
    if mode not in CSR_CORRUPTIONS:
        raise ValueError(f"unknown CSR corruption {mode!r}; known: {CSR_CORRUPTIONS}")
    if mode == "indptr_regression" and n_rows >= 2:
        i = rng.randrange(1, n_rows)
        indptr[i] = indptr[i - 1] - 1
    elif mode == "col_out_of_range" and nnz:
        indices[rng.randrange(nnz)] = n_cols + 3
    elif mode == "col_duplicate" and nnz:
        wide = np.nonzero(np.diff(indptr) >= 2)[0]
        if wide.size:
            row = int(wide[rng.randrange(wide.size)])
            lo = int(indptr[row])
            indices[lo + 1] = indices[lo]
        else:
            indices[rng.randrange(nnz)] = n_cols + 3
    elif mode == "nan_data" and nnz:
        data[rng.randrange(nnz)] = np.nan
    elif mode == "inf_data" and nnz:
        data[rng.randrange(nnz)] = np.inf
    elif mode == "drop_diagonal" and nnz and n_rows:
        row = rng.randrange(n_rows)
        lo, hi = int(indptr[row]), int(indptr[row + 1])
        hit = np.nonzero(indices[lo:hi] == row)[0]
        if hit.size:
            k = lo + int(hit[0])
            indices = np.delete(indices, k)
            data = np.delete(data, k)
            indptr[row + 1 :] -= 1
    return (n_rows, n_cols, indptr, indices, data)


def truncate_blob(data: bytes, rng: random.Random) -> bytes:
    """A torn-write variant of ``data``: a strict prefix cut at a random point.

    Models a crash mid-``write(2)``: some prefix of the record reached the
    platter and the rest never did.  The cut point is drawn by the plan's
    RNG so two chaos runs tear the same records at the same byte.
    """
    if not data:
        return data
    return bytes(data[: rng.randrange(0, len(data))])


def bit_flip_blob(data: bytes, rng: random.Random) -> bytes:
    """``data`` with one bit flipped at a seeded position (media corruption)."""
    if not data:
        return data
    out = bytearray(data)
    pos = rng.randrange(len(out))
    out[pos] ^= 1 << rng.randrange(8)
    return bytes(out)


def corrupt_schedule(schedule, rng: random.Random):
    """A deterministically broken variant of a cached schedule.

    Drops the last coarsened wavefront, so the result no longer covers the
    vertex set — a structural defect ``assert_schedule_safe`` refutes on
    any DAG, which is what makes cache-corruption chaos tests reliable.
    """
    from dataclasses import replace

    if not schedule.n_levels:
        return schedule
    parts = int(schedule.level_ptr[-2])
    return replace(
        schedule,
        order=schedule.order[: schedule.part_ptr[parts]],
        part_ptr=schedule.part_ptr[: parts + 1],
        part_core=schedule.part_core[:parts],
        level_ptr=schedule.level_ptr[:-1],
        meta=dict(schedule.meta),
    )


# ----------------------------------------------------------------------
# the global hook
# ----------------------------------------------------------------------
_ACTIVE: Optional[FaultPlan] = None

#: Optional ``(site, action, label) -> None`` callback invoked for every
#: *fired* fault.  The observability layer installs a metrics counter here
#: (:mod:`repro.observability.state`); keeping it an injected callable
#: preserves this module's no-repro-imports layering.
_OBSERVER = None


def set_fault_observer(observer) -> None:
    """Install (or clear, with ``None``) the fired-fault callback."""
    global _OBSERVER
    _OBSERVER = observer


def fault_point(site: str, *, payload: Any = None, label: Optional[str] = None) -> Any:
    """Fault-injection hook: a no-op unless a :class:`FaultPlan` is armed.

    Instrumented code ignores the return value except at ``corrupt`` sites,
    where a non-``None`` return replaces the payload.  The dormant cost is
    one global read and a ``None`` comparison.
    """
    plan = _ACTIVE
    if plan is None:
        return None
    return plan.fire(site, payload=payload, label=label)


def active_plan() -> Optional[FaultPlan]:
    """The currently armed plan, or ``None``."""
    return _ACTIVE


@contextmanager
def armed(plan: Optional[FaultPlan]):
    """Arm ``plan`` for the duration of the block (``None`` is a no-op).

    Arming is process-global (fork pool workers inherit the armed plan);
    nesting two plans is refused — it would make occurrence counting, and
    therefore the injected faults, ambiguous.
    """
    global _ACTIVE
    if plan is None:
        yield None
        return
    if _ACTIVE is not None:
        raise RuntimeError("a FaultPlan is already armed; disarm it before arming another")
    _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = None
