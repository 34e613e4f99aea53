"""Persistent schedule storage: the durable tier of schedule reuse.

Inspection is expensive and amortised across executions (the paper's NRE
analysis); this package makes the amortisation survive process death.  It
has two layers:

* :mod:`repro.store.codec` — a compact versioned binary format for
  :class:`~repro.core.schedule.Schedule` with a trailing CRC32, so every
  record is self-validating;
* :mod:`repro.store.store` — a sharded on-disk store keyed by
  :func:`~repro.core.schedule_cache.schedule_key` digests, with atomic
  writes, per-shard manifests for O(1) open, and quarantine-not-crash
  corruption handling.

:class:`~repro.core.schedule_cache.ScheduleCache` takes a store as the
second rung of its reuse ladder — every record it reads is verified
against the requested DAG, and a refuted one is quarantined — so repeated
``hdagg-bench --store DIR`` runs reuse schedules across processes.  The
store is also usable standalone (e.g. to pre-warm a schedule library for
a fixed factorisation pattern).
"""

from .codec import CODEC_VERSION, CodecError, decode_schedule, encode_schedule
from .store import (
    STORE_FORMAT,
    AuditReport,
    QuarantineEvent,
    ScheduleStore,
    StoreError,
    StoreStats,
)

__all__ = [
    "CODEC_VERSION",
    "CodecError",
    "decode_schedule",
    "encode_schedule",
    "STORE_FORMAT",
    "AuditReport",
    "QuarantineEvent",
    "ScheduleStore",
    "StoreError",
    "StoreStats",
]
