"""The closed metric catalog.

:func:`metric_catalog` enumerates every metric name the repo is allowed to
emit, mapped to its instrument kind (plus a handful of documented prefix
families for label-derived names).  ``statan`` rule L009 checks
registration call sites statically; :func:`catalog_violations` checks the
names a live registry actually registered, which covers the call sites
whose names L009 cannot resolve (a helper taking the name as an argument,
an f-string family).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

__all__ = [
    "FSTRING_NAME_PREFIXES",
    "METRIC_NAME_PREFIXES",
    "metric_catalog",
    "catalog_violations",
]

#: Prefix families for genuinely open-ended, label-derived names.  Keep
#: this list short: every entry weakens the closed-world check, so a
#: family belongs here only when its label set is unbounded by design.
METRIC_NAME_PREFIXES: Tuple[str, ...] = ()

#: Prefixes statan's L009 accepts for *f-string* metric names.  Wider
#: than :data:`METRIC_NAME_PREFIXES` because a call site interpolating a
#: site or scheduler label cannot be resolved statically — the runtime
#: drift check (:func:`catalog_violations` over a live registry, run by
#: ``tests/observability/test_telemetry.py``) closes exactly that gap.
FSTRING_NAME_PREFIXES: Tuple[str, ...] = METRIC_NAME_PREFIXES + (
    "resilience.faults_fired.",
    "inspector.runs.",
)


def metric_catalog() -> Dict[str, str]:
    """Every metric name the repo may emit, mapped to its instrument kind.

    The catalog is *enumerated*, not pattern-matched: dynamic families
    (per fault site, per scheduler) are expanded from the same registries
    the emitting code reads, so adding a fault site or a scheduler extends
    the catalog automatically while a typo'd metric name stays a hard
    failure.
    """
    from ..resilience.faults import FAULT_SITES

    catalog: Dict[str, str] = {
        # inspector core (repro.core.hdagg)
        "inspector.vertices": "counter",
        "inspector.vertices_coarsened": "counter",
        "inspector.coarse_vertices": "gauge",
        "inspector.accumulated_pgp": "gauge",
        "inspector.pgp_at_merge": "histogram",
        "binpack.occupancy": "histogram",
        # model-executor simulator (trace CLI)
        "simulator.makespan_cycles": "gauge",
        "simulator.potential_gain": "gauge",
        # in-process schedule cache and its reuse ladder
        "schedule_cache.hits": "counter",
        "schedule_cache.misses": "counter",
        "schedule_cache.store_hits": "counter",
        "schedule_cache.store_read_errors": "counter",
        "schedule_cache.store_write_errors": "counter",
        "schedule_cache.evictions": "counter",
        "schedule_cache.entries": "gauge",
        # fault injection
        "resilience.faults_fired": "counter",
        # persistent schedule store
        "store.writes": "counter",
        "store.hits": "counter",
        "store.misses": "counter",
        "store.quarantined": "counter",
        "store.manifest_repairs": "counter",
        "store.manifest_rebuilds": "counter",
        "store.evictions": "counter",
        "store.codec_errors": "counter",
        "store.quarantine_count": "gauge",
        "store.shard_occupancy": "gauge",
        "store.occupancy_bytes": "gauge",
    }
    for site in FAULT_SITES:
        catalog[f"resilience.faults_fired.{site}"] = "counter"
    from ..schedulers import SCHEDULERS

    for name in SCHEDULERS:
        catalog[f"inspector.runs.{name}"] = "counter"
    return catalog


def catalog_violations(names: Iterable[str]) -> List[str]:
    """Emitted names not declared in the catalog (the drift check)."""
    catalog = metric_catalog()
    out = []
    for name in names:
        if name in catalog:
            continue
        if any(name.startswith(p) for p in METRIC_NAME_PREFIXES):
            continue
        out.append(name)
    return sorted(out)
