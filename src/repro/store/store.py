"""Crash-safe sharded persistent schedule store.

The store maps :func:`~repro.core.schedule_cache.schedule_key` digests —
(structure digest, kernel, scheduler, p, ε, tier) — to encoded
schedules on disk.  Its failure contract is the whole point: inspection
is the expensive half of an inspector-executor framework, so a stored
schedule that is silently lost is bad, and one that is silently *wrong*
is catastrophic.  Every operation therefore lands in one of three states:
the record is served bit-identical to what was written, the record is
missing (the caller re-inspects), or the record is **quarantined** —
moved aside with a reason, never served, never crashing the reader.

On-disk layout (``format`` 1)::

    root/
      store.json            {"format": 1, "n_shards": N}
      quarantine/           quarantined record files (audit trail)
      shards/<hh>/          shard directories, hh = shard id in hex
        <key>.sched         one record file per key (codec blob)
        manifest.json       {"format": 1, "records": {key: {size, crc32}}}

Crash-consistency protocol:

* **records** are written atomically: temp file in the shard directory,
  flush + fsync, ``os.replace`` onto the final name, directory fsync.  A
  kill at any point leaves either no visible record or the complete new
  one — never a half-record under the final name (the ``store.torn_write``
  fault site simulates both the kill and the torn-but-visible case);
* **manifests** are an index, not the truth.  They are rewritten
  atomically after the record rename; a kill between the two (the
  ``store.stale_manifest`` site) leaves a record the manifest misses,
  which :meth:`ScheduleStore.get` recovers by probing the key-derived
  filename directly and repairing the manifest.  A corrupt manifest is
  rebuilt from the shard directory;
* **reads** verify the manifest's size/CRC expectation *and* the codec's
  own trailing CRC; any mismatch quarantines the record and reports a
  miss.  Opening a store never scans record files — only ``store.json``
  is read eagerly and manifests load lazily per shard (O(1) open).

The store is safe for concurrent readers and writers within one process
(a re-entrant lock serialises mutation); cross-process single-writer
discipline is the caller's job, as with the resilience journal.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from dataclasses import dataclass, field
from os import PathLike
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..core.schedule import Schedule
from ..observability.state import STATE as _OBS_STATE
from ..resilience.faults import fault_point
from .codec import CodecError, decode_schedule, encode_schedule

__all__ = [
    "STORE_FORMAT",
    "StoreError",
    "QuarantineEvent",
    "StoreStats",
    "AuditReport",
    "ScheduleStore",
]

STORE_FORMAT = 1

_RECORD_SUFFIX = ".sched"
_MANIFEST_NAME = "manifest.json"


class StoreError(RuntimeError):
    """The store itself is unusable (bad root metadata, I/O failure)."""


@dataclass(frozen=True)
class QuarantineEvent:
    """One record the store refused to serve, and why."""

    key: str
    shard: int
    reason: str
    path: str

    def as_dict(self) -> dict:
        return {"key": self.key, "shard": self.shard, "reason": self.reason, "path": self.path}


@dataclass(frozen=True)
class StoreStats:
    """Lifetime counters of one :class:`ScheduleStore` instance."""

    hits: int
    misses: int
    writes: int
    quarantined: int
    manifest_repairs: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class AuditReport:
    """Result of a full-store :meth:`ScheduleStore.audit` sweep."""

    scanned: int = 0
    ok: int = 0
    quarantined: List[QuarantineEvent] = field(default_factory=list)
    repaired_manifests: int = 0

    def as_dict(self) -> dict:
        return {
            "scanned": self.scanned,
            "ok": self.ok,
            "quarantined": [q.as_dict() for q in self.quarantined],
            "repaired_manifests": self.repaired_manifests,
        }


def _fsync_dir(path: Path) -> None:
    """Flush a directory entry to disk (best effort on exotic filesystems)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _atomic_write_bytes(path: Path, data: bytes, *, durable: bool) -> None:
    """temp file + flush + fsync + rename: the only way bytes become visible."""
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        if durable:
            os.fsync(fh.fileno())
    os.replace(tmp, path)
    if durable:
        _fsync_dir(path.parent)


class ScheduleStore:
    """Sharded persistent map from schedule-key digests to schedules.

    Parameters
    ----------
    root:
        Store directory; created (with ``store.json``) when absent.  An
        existing store's shard count is authoritative — ``n_shards`` is
        only consulted at creation, so readers and writers can never
        disagree on the key → shard mapping.
    n_shards:
        Shard fan-out at creation time (keys spread by digest prefix).
    durable:
        fsync records and manifests (the crash-consistency contract).
        Tests that only exercise logic may pass ``False`` for speed.
    """

    def __init__(
        self,
        root: Union[str, PathLike],
        *,
        n_shards: int = 16,
        durable: bool = True,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.root = Path(root)
        self.durable = durable
        self._lock = threading.RLock()
        self._manifests: Dict[int, Dict[str, dict]] = {}
        self.events: List[QuarantineEvent] = []
        self._hits = 0
        self._misses = 0
        self._writes = 0
        self._quarantined = 0
        self._manifest_repairs = 0
        self.root.mkdir(parents=True, exist_ok=True)
        meta_path = self.root / "store.json"
        if meta_path.exists():
            try:
                meta = json.loads(meta_path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as exc:
                raise StoreError(f"{meta_path}: unreadable store metadata") from exc
            if meta.get("format") != STORE_FORMAT:
                raise StoreError(
                    f"{meta_path}: store format {meta.get('format')!r} "
                    f"!= supported {STORE_FORMAT}"
                )
            self.n_shards = int(meta["n_shards"])
        else:
            self.n_shards = n_shards
            (self.root / "shards").mkdir(exist_ok=True)
            (self.root / "quarantine").mkdir(exist_ok=True)
            _atomic_write_bytes(
                meta_path,
                json.dumps({"format": STORE_FORMAT, "n_shards": n_shards}).encode("utf-8"),
                durable=durable,
            )

    # ------------------------------------------------------------------
    # layout helpers
    # ------------------------------------------------------------------
    def shard_of(self, key: str) -> int:
        """Deterministic shard id for a schedule-key digest."""
        try:
            return int(key[:8], 16) % self.n_shards
        except ValueError as exc:
            raise StoreError(f"key {key!r} is not a hex digest") from exc

    def _shard_dir(self, shard: int) -> Path:
        return self.root / "shards" / f"{shard:02x}"

    def _record_path(self, shard: int, key: str) -> Path:
        return self._shard_dir(shard) / f"{key}{_RECORD_SUFFIX}"

    def _quarantine_dir(self) -> Path:
        q = self.root / "quarantine"
        q.mkdir(parents=True, exist_ok=True)
        return q

    # ------------------------------------------------------------------
    # manifests
    # ------------------------------------------------------------------
    def _manifest(self, shard: int) -> Dict[str, dict]:
        """The shard's manifest, loaded (or rebuilt) on first touch."""
        cached = self._manifests.get(shard)
        if cached is not None:
            return cached
        path = self._shard_dir(shard) / _MANIFEST_NAME
        records: Dict[str, dict] = {}
        if path.exists():
            try:
                doc = json.loads(path.read_text(encoding="utf-8"))
                if doc.get("format") != STORE_FORMAT:
                    raise ValueError(f"manifest format {doc.get('format')!r}")
                records = dict(doc["records"])
            except (OSError, ValueError, KeyError, json.JSONDecodeError):
                # a torn manifest write is recoverable state, not an
                # error: rebuild the index from the records on disk
                records = self._rebuild_manifest(shard)
        self._manifests[shard] = records
        return records

    def _rebuild_manifest(self, shard: int) -> Dict[str, dict]:
        records: Dict[str, dict] = {}
        shard_dir = self._shard_dir(shard)
        if shard_dir.is_dir():
            for p in sorted(shard_dir.glob(f"*{_RECORD_SUFFIX}")):
                records[p.name[: -len(_RECORD_SUFFIX)]] = {"size": p.stat().st_size}
        self._manifest_repairs += 1
        self._count("store.manifest_rebuilds")
        return records

    def _write_manifest(self, shard: int) -> None:
        shard_dir = self._shard_dir(shard)
        shard_dir.mkdir(parents=True, exist_ok=True)
        doc = {"format": STORE_FORMAT, "records": self._manifests.get(shard, {})}
        _atomic_write_bytes(
            shard_dir / _MANIFEST_NAME,
            json.dumps(doc, sort_keys=True).encode("utf-8"),
            durable=self.durable,
        )

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        if _OBS_STATE.enabled and _OBS_STATE.registry is not None:
            _OBS_STATE.registry.counter(name).inc(amount)

    def _publish_gauges(self, shard: int) -> None:
        """Refresh the store health gauges after a mutation (guarded)."""
        if _OBS_STATE.enabled and _OBS_STATE.registry is not None:
            reg = _OBS_STATE.registry
            reg.gauge("store.quarantine_count").set(self._quarantined)
            reg.gauge("store.shard_occupancy").set(len(self._manifests.get(shard, {})))

    # ------------------------------------------------------------------
    # the API
    # ------------------------------------------------------------------
    def put(self, key: str, schedule: Schedule) -> None:
        """Persist ``schedule`` under ``key`` (atomic, durable, idempotent).

        A crash at any point of the sequence leaves the store openable and
        every previously stored record intact; the fault sites
        ``store.bit_flip`` / ``store.torn_write`` / ``store.stale_manifest``
        inject the corresponding failures deterministically.
        """
        shard = self.shard_of(key)
        blob = encode_schedule(schedule)
        with self._lock:
            shard_dir = self._shard_dir(shard)
            shard_dir.mkdir(parents=True, exist_ok=True)
            written = blob
            injected = fault_point("store.bit_flip", payload=blob, label=key)
            if injected is not None:
                written = injected
            final = self._record_path(shard, key)
            tmp = final.with_name(final.name + f".tmp{os.getpid()}")
            with open(tmp, "wb") as fh:
                fh.write(written)
                fh.flush()
                if self.durable:
                    os.fsync(fh.fileno())
            # between the temp write and the rename: a ``raise`` here is a
            # kill that strands the temp file (no visible record); a
            # ``corrupt`` return is a tear that *did* become visible
            torn = fault_point("store.torn_write", payload=written, label=key)
            if torn is not None:
                with open(tmp, "wb") as fh:
                    fh.write(torn)
                    fh.flush()
                    if self.durable:
                        os.fsync(fh.fileno())
            os.replace(tmp, final)
            if self.durable:
                _fsync_dir(shard_dir)
            # the manifest records the *intended* size/CRC, so a torn
            # record that became visible is caught on the next read
            fault_point("store.stale_manifest", label=key)
            manifest = self._manifest(shard)
            manifest[key] = {"size": len(blob), "crc32": zlib.crc32(blob) & 0xFFFFFFFF}
            self._write_manifest(shard)
            self._writes += 1
            self._count("store.writes")
            self._publish_gauges(shard)

    def get(self, key: str) -> Optional[Schedule]:
        """The stored schedule, or ``None`` (absent *or* quarantined).

        Never raises on corrupt data: a record failing any integrity
        check (manifest size/CRC expectation, codec CRC, structural
        decode) is quarantined and reported as a miss, so callers always
        have the re-inspection fallback.
        """
        shard = self.shard_of(key)
        with self._lock:
            manifest = self._manifest(shard)
            entry = manifest.get(key)
            path = self._record_path(shard, key)
            try:
                blob = path.read_bytes()
            except FileNotFoundError:
                if entry is not None:
                    # manifest ahead of the data (record lost): drop the
                    # dangling index entry so the miss is not re-probed
                    del manifest[key]
                    self._write_manifest(shard)
                self._misses += 1
                self._count("store.misses")
                return None
            except OSError as exc:
                raise StoreError(f"{path}: unreadable record") from exc
            if entry is not None and entry.get("size") not in (None, len(blob)):
                self._quarantine(key, shard, f"size mismatch ({len(blob)} != {entry['size']})")
                self._misses += 1
                self._count("store.misses")
                return None
            if entry is not None and entry.get("crc32") is not None:
                if (zlib.crc32(blob) & 0xFFFFFFFF) != entry["crc32"]:
                    self._quarantine(key, shard, "manifest CRC mismatch")
                    self._misses += 1
                    self._count("store.misses")
                    return None
            try:
                schedule = decode_schedule(blob)
            except CodecError as exc:
                self._count("store.codec_errors")
                self._quarantine(key, shard, f"codec: {exc}")
                self._misses += 1
                self._count("store.misses")
                return None
            if entry is None:
                # stale manifest (crash between rename and index write):
                # the record is valid — repair the index in place
                manifest[key] = {"size": len(blob), "crc32": zlib.crc32(blob) & 0xFFFFFFFF}
                self._write_manifest(shard)
                self._manifest_repairs += 1
                self._count("store.manifest_repairs")
            self._hits += 1
            self._count("store.hits")
            return schedule

    def quarantine_key(self, key: str, reason: str) -> bool:
        """Force-quarantine a record (e.g. it failed a caller's safety check)."""
        shard = self.shard_of(key)
        with self._lock:
            if not self._record_path(shard, key).exists():
                return False
            self._quarantine(key, shard, reason)
            return True

    def _quarantine(self, key: str, shard: int, reason: str) -> None:
        """Move a bad record out of serving position; never raises."""
        path = self._record_path(shard, key)
        dest = self._quarantine_dir() / f"{key}.{len(self.events)}{_RECORD_SUFFIX}"
        try:
            os.replace(path, dest)
        except OSError:
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
            dest = path
        manifest = self._manifest(shard)
        if key in manifest:
            del manifest[key]
            try:
                self._write_manifest(shard)
            except OSError:
                pass
        event = QuarantineEvent(key=key, shard=shard, reason=reason, path=str(dest))
        self.events.append(event)
        self._quarantined += 1
        self._count("store.quarantined")
        self._publish_gauges(shard)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            shard = self.shard_of(key)
            return key in self._manifest(shard) or self._record_path(shard, key).exists()

    def keys(self) -> List[str]:
        """All indexed keys (loads every shard manifest)."""
        with self._lock:
            out: List[str] = []
            for shard in range(self.n_shards):
                out.extend(sorted(self._manifest(shard)))
            return out

    def __len__(self) -> int:
        return len(self.keys())

    @property
    def stats(self) -> StoreStats:
        return StoreStats(
            hits=self._hits,
            misses=self._misses,
            writes=self._writes,
            quarantined=self._quarantined,
            manifest_repairs=self._manifest_repairs,
        )

    def audit(self) -> AuditReport:
        """Validate every record on disk (manifest-indexed or stray).

        Bad records are quarantined; records the manifests missed are
        validated and re-indexed.  The sweep is the offline complement of
        the lazy per-read checks — run it after a crash or before
        sharing a store between runs.
        """
        report = AuditReport()
        with self._lock:
            before = self._quarantined
            repairs_before = self._manifest_repairs
            for shard in range(self.n_shards):
                shard_dir = self._shard_dir(shard)
                if not shard_dir.is_dir():
                    continue
                keys = {p.name[: -len(_RECORD_SUFFIX)] for p in shard_dir.glob(f"*{_RECORD_SUFFIX}")}
                keys |= set(self._manifest(shard))
                for key in sorted(keys):
                    report.scanned += 1
                    if self.get(key) is not None:
                        report.ok += 1
            report.quarantined = self.events[before:]
            report.repaired_manifests = self._manifest_repairs - repairs_before
        return report

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ScheduleStore({str(self.root)!r}, n_shards={self.n_shards})"
