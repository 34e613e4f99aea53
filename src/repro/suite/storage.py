"""Persist and reload harness run records.

Full-suite runs cost minutes of inspection; the tables and figures that
consume them cost milliseconds.  Storing the flat
:class:`~repro.suite.harness.RunRecord` list as JSON decouples the two:
run the grid once (CI, overnight, a beefier machine), regenerate any table
offline, diff records across commits.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from os import PathLike
from typing import List, Sequence, Union

from .harness import RunRecord

__all__ = [
    "records_to_json",
    "records_from_json",
    "save_records",
    "load_records",
    "record_to_blob",
    "record_from_blob",
    "encode_float",
    "decode_float",
]

_FLOAT_FIELDS = {
    f.name for f in fields(RunRecord) if f.type in ("float", float)
}

#: Resilience and provenance fields are serialised only when they carry
#: information, so records of non-degraded default-backend runs (and the
#: --json payloads built from them) stay byte-identical to those written
#: before the fields existed.
_DORMANT_DEFAULTS = {
    "degraded": False,
    "degraded_from": "",
    "backend": "",
    "schedule_repaired": False,
}


def encode_float(value):
    """Non-finite floats as portable strings (strict JSON has no NaN/Inf)."""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
    return value


def decode_float(value):
    """Inverse of :func:`encode_float`."""
    if isinstance(value, str) and value in ("inf", "-inf", "nan"):
        return float(value)
    return value


_encode = encode_float


def _decode(name: str, value):
    return decode_float(value)


def record_to_blob(record: RunRecord, *, encode_floats: bool = True) -> dict:
    """One record as a JSON-ready dict (dormant default fields dropped)."""
    blob = {
        k: (_encode(v) if encode_floats else v)
        for k, v in record.__dict__.items()
        if k not in _DORMANT_DEFAULTS or v != _DORMANT_DEFAULTS[k]
    }
    return blob


def record_from_blob(blob: dict) -> RunRecord:
    """Inverse of :func:`record_to_blob`; validates the field set."""
    expected = {f.name for f in fields(RunRecord)}
    optional = set(_DORMANT_DEFAULTS)
    if not (expected - optional <= set(blob) <= expected):
        missing = (expected - optional) - set(blob)
        extra = set(blob) - expected
        raise ValueError(f"record fields mismatch (missing={missing}, extra={extra})")
    return RunRecord(**{k: _decode(k, v) for k, v in blob.items()})


def records_to_json(records: Sequence[RunRecord]) -> str:
    """Serialise records (non-finite floats encoded as strings)."""
    blobs = [record_to_blob(r) for r in records]
    return json.dumps({"version": 1, "records": blobs}, indent=1)


def records_from_json(text: str) -> List[RunRecord]:
    """Inverse of :func:`records_to_json`; validates the field set."""
    doc = json.loads(text)
    if doc.get("version") != 1:
        raise ValueError(f"unsupported records version {doc.get('version')!r}")
    return [record_from_blob(blob) for blob in doc["records"]]


def save_records(records: Sequence[RunRecord], path: Union[str, PathLike]) -> None:
    """Write run records to a JSON file (see :func:`records_to_json`)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(records_to_json(records))


def load_records(path: Union[str, PathLike]) -> List[RunRecord]:
    """Read run records from a JSON file written by :func:`save_records`."""
    with open(path, "r", encoding="utf-8") as fh:
        return records_from_json(fh.read())
