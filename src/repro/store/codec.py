"""Compact versioned binary codec for :class:`~repro.core.schedule.Schedule`.

The resilience journal's JSONL rows are the wrong shape for a hot serving
path: a schedule for a 100k-row factor costs megabytes of decimal digits
and a full JSON parse per read.  This codec is the store's wire format —
a fixed little-endian header, raw vertex arrays (4- or 8-byte ids, chosen
per record by the vertex-count), and a trailing CRC32 over everything
before it, so a record is *self-validating*: any torn write, bit flip, or
truncation fails :func:`decode_schedule` with :class:`CodecError` instead
of yielding a plausible-but-wrong schedule.

Layout (version 1, all integers little-endian)::

    magic      4s   b"HDSC"
    version    u16  1
    flags      u16  bit0 fine_grained, bit1 sync == "p2p"
    n          u64  vertex count
    n_cores    u32
    vwidth     u8   bytes per vertex id (4 when n fits in u32, else 8)
    _pad       3x
    algo_len   u16  | followed by algo utf-8 bytes
    meta_len   u32  | followed by canonical-JSON meta bytes
    n_levels   u32
    per level: n_parts u32
      per partition: core i32, size u32, size * vwidth vertex bytes
    crc32      u32  over every preceding byte

Guarantees the tests pin: ``decode(encode(s))`` reproduces ``s``'s full
structure bit-identically (vertex arrays compare equal as ``INDEX_DTYPE``),
``encode(decode(b)) == b`` (canonical form), and any single-byte mutation
or truncation of a blob raises :class:`CodecError` (CRC32 detects all
single-byte and all burst-under-32-bit errors).

Only plainly JSON-serialisable ``meta`` entries survive the round trip —
inspector diagnostics holding arrays are dropped, never mangled.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import List

import numpy as np

from ..core.schedule import Schedule, ScheduleError, ptr_from_counts
from ..sparse.csr import INDEX_DTYPE

__all__ = ["CODEC_VERSION", "MAGIC", "CodecError", "encode_schedule", "decode_schedule"]

MAGIC = b"HDSC"
CODEC_VERSION = 1

_FIXED = struct.Struct("<4sHHQIB3x")  # magic, version, flags, n, n_cores, vwidth
_ALGO_LEN = struct.Struct("<H")
_META_LEN = struct.Struct("<I")
_U32 = struct.Struct("<I")
_PART_HDR = struct.Struct("<iI")  # core, size

_FLAG_FINE_GRAINED = 1 << 0
_FLAG_P2P = 1 << 1


class CodecError(ValueError):
    """The blob is not a valid schedule record (corrupt, torn, or foreign)."""


def _json_safe(v) -> bool:
    """Keep only plainly serialisable meta entries when encoding."""
    if isinstance(v, (bool, int, float, str)) or v is None:
        return True
    if isinstance(v, (list, tuple)):
        return all(_json_safe(x) for x in v)
    return False


def encode_schedule(schedule: Schedule) -> bytes:
    """Serialise ``schedule`` into one self-validating binary record."""
    if schedule.sync not in ("barrier", "p2p"):
        raise CodecError(f"unknown sync model {schedule.sync!r}")
    flags = 0
    if schedule.fine_grained:
        flags |= _FLAG_FINE_GRAINED
    if schedule.sync == "p2p":
        flags |= _FLAG_P2P
    vwidth = 4 if schedule.n <= 0xFFFFFFFF else 8
    vdtype = np.dtype("<u4") if vwidth == 4 else np.dtype("<u8")
    algo = schedule.algorithm.encode("utf-8")
    if len(algo) > 0xFFFF:
        raise CodecError("algorithm name too long to encode")
    meta = {k: v for k, v in schedule.meta.items() if _json_safe(v)}
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts: List[bytes] = [
        _FIXED.pack(MAGIC, CODEC_VERSION, flags, schedule.n, schedule.n_cores, vwidth),
        _ALGO_LEN.pack(len(algo)),
        algo,
        _META_LEN.pack(len(meta_bytes)),
        meta_bytes,
        _U32.pack(schedule.n_levels),
    ]
    verts = np.ascontiguousarray(schedule.order, dtype=vdtype)
    ptr = schedule.part_ptr.tolist()
    cores = schedule.part_core.tolist()
    lp = schedule.level_ptr.tolist()
    for k in range(schedule.n_levels):
        parts.append(_U32.pack(lp[k + 1] - lp[k]))
        for j in range(lp[k], lp[k + 1]):
            parts.append(_PART_HDR.pack(cores[j], ptr[j + 1] - ptr[j]))
            parts.append(verts[ptr[j] : ptr[j + 1]].tobytes())
    body = b"".join(parts)
    return body + _U32.pack(zlib.crc32(body) & 0xFFFFFFFF)


class _Cursor:
    """Bounds-checked reader over a blob; every overrun is a CodecError."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise CodecError(
                f"record truncated: wanted {n} bytes at offset {self.pos}, "
                f"have {len(self.data) - self.pos}"
            )
        out = self.data[self.pos : end]
        self.pos = end
        return out

    def unpack(self, s: struct.Struct):
        return s.unpack(self.take(s.size))


def decode_schedule(blob: bytes) -> Schedule:
    """Rebuild the schedule serialised by :func:`encode_schedule`.

    Raises :class:`CodecError` on *any* defect — bad magic, unsupported
    version, CRC mismatch, truncation, trailing garbage, or structurally
    impossible contents (out-of-range vertex ids, empty partitions).  It
    never returns a schedule other than the one that was encoded.
    """
    if len(blob) < _FIXED.size + _U32.size:
        raise CodecError(f"record too short to be a schedule ({len(blob)} bytes)")
    body, (crc_stored,) = blob[:-4], _U32.unpack(blob[-4:])
    crc_actual = zlib.crc32(body) & 0xFFFFFFFF
    if crc_stored != crc_actual:
        raise CodecError(f"CRC mismatch: stored {crc_stored:#010x}, computed {crc_actual:#010x}")
    cur = _Cursor(body)
    magic, version, flags, n, n_cores, vwidth = cur.unpack(_FIXED)
    if magic != MAGIC:
        raise CodecError(f"bad magic {magic!r} (not a schedule record)")
    if version != CODEC_VERSION:
        raise CodecError(f"unsupported codec version {version} (this build reads {CODEC_VERSION})")
    if vwidth not in (4, 8):
        raise CodecError(f"invalid vertex width {vwidth}")
    vdtype = np.dtype("<u4") if vwidth == 4 else np.dtype("<u8")
    (algo_len,) = cur.unpack(_ALGO_LEN)
    try:
        algorithm = cur.take(algo_len).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError("algorithm name is not valid utf-8") from exc
    (meta_len,) = cur.unpack(_META_LEN)
    try:
        meta = json.loads(cur.take(meta_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CodecError("meta block is not valid JSON") from exc
    if not isinstance(meta, dict):
        raise CodecError("meta block is not a JSON object")
    (n_levels,) = cur.unpack(_U32)
    widths: List[int] = []
    sizes: List[int] = []
    cores: List[int] = []
    chunks: List[bytes] = []
    for _ in range(n_levels):
        (n_parts,) = cur.unpack(_U32)
        widths.append(n_parts)
        for _ in range(n_parts):
            core, size = cur.unpack(_PART_HDR)
            if size == 0:
                raise CodecError("empty width-partition in record")
            chunks.append(cur.take(size * vwidth))
            sizes.append(size)
            cores.append(core)
    if cur.pos != len(body):
        raise CodecError(f"{len(body) - cur.pos} trailing bytes after the last partition")
    order = np.frombuffer(b"".join(chunks), dtype=vdtype).astype(INDEX_DTYPE)
    if order.size and int(order.max()) >= n:
        raise CodecError("vertex id out of range in record")
    try:
        return Schedule(
            n=int(n),
            order=order,
            part_ptr=ptr_from_counts(sizes),
            part_core=np.asarray(cores, dtype=INDEX_DTYPE),
            level_ptr=ptr_from_counts(widths),
            sync="p2p" if flags & _FLAG_P2P else "barrier",
            algorithm=algorithm,
            n_cores=int(n_cores),
            fine_grained=bool(flags & _FLAG_FINE_GRAINED),
            meta=meta,
        )
    except ScheduleError as exc:
        raise CodecError(f"decoded record violates schedule invariants: {exc}") from exc
