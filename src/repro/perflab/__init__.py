"""Perf-lab: provenance stamps for the benchmark and the verdict on its results.

* :mod:`repro.perflab.fingerprint` — environment identity (CPU model,
  governor, BLAS, python/numpy/scipy versions) hashed into a digest, with
  the git SHA, observability and fault switches stamped as provenance.
  ``bench/run.py`` stamps every run with it.
* :mod:`repro.perflab.compare` / :mod:`repro.perflab.cli` — ``hdagg-bench
  perf compare PARENT_DIR CHANGE_DIR``: pairs repeated ``bench/run.py``
  results of two commits and judges them by the one rule of
  ``bench/README.md`` ("Comparing two commits").

Everything re-exported here resolves lazily, so that importing
:mod:`repro.perflab.fingerprint` (done by the benchmark inside its timed
set-up) pulls in nothing else.
"""

from __future__ import annotations

__all__ = [
    "PERF_SCHEMA_VERSION",
    "EnvironmentFingerprint",
    "collect_fingerprint",
    "perf_compare",
    "perf_main",
]

_HOMES = {
    "PERF_SCHEMA_VERSION": "fingerprint",
    "EnvironmentFingerprint": "fingerprint",
    "collect_fingerprint": "fingerprint",
    "perf_compare": "compare",
    "perf_main": "cli",
}


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{home}", __name__), name)
