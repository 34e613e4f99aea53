"""Observability overhead + dormancy gate for CI.

Two promises from the observability layer, checked on a smoke-sized cell:

1. **<2% dormant overhead.**  Disabled instrumentation costs one guard —
   an attribute read on the module-global state slot, or a local
   ``is not None`` check — per site.  The gate measures the per-guard cost
   directly (amortised over a tight loop), counts the guards the smoke
   cell executes in one extra dormant run, and asserts that
   ``guards x cost_per_guard`` stays under 2% of the measured cell
   runtime.  ``STATE.enabled`` reads are counted by giving ``STATE`` a
   counting subclass for that run; the simulator's ``recorder is not
   None`` checks are bounded by ``3 + 2 * n_partitions`` per simulated
   schedule, whatever its sync.  Bounding the
   product, instead of diffing two noisy wall-clock runs, keeps the gate
   deterministic on shared CI runners.

2. **Byte-identical records when off.**  Two dormant runs of the same
   harness cell must serialise to byte-identical JSON once wall-clock
   timing fields are normalised out, and an *enabled* run must match them
   too — tracing may never perturb a deterministic result field.

Usage::

    PYTHONPATH=src python benchmarks/smoke_observability.py [budget_ms]

``budget_ms`` bounds the smoke cell's inspector runtime (same spirit as
``smoke_inspector.py``); the overhead and identity gates are absolute.
"""

from __future__ import annotations

import json
import sys
import time
from unittest import mock

from repro.observability.state import STATE, ObservabilityState, observed
from repro.suite import harness
from repro.suite.harness import Harness
from repro.suite.matrices import small_suite
from repro.suite.storage import record_to_blob

DEFAULT_BUDGET_MS = 2000.0
OVERHEAD_LIMIT = 0.02
ROUNDS = 3

#: RunRecord fields derived from wall-clock readings — normalised to 0
#: before byte comparison (they differ between any two runs of anything)
_TIMING_FIELDS = ("inspector_seconds", "inspector_cycles", "nre", "stage_seconds")


def _normalised_json(records) -> str:
    blobs = []
    for r in records:
        blob = record_to_blob(r, encode_floats=False)
        for f in _TIMING_FIELDS:
            blob.pop(f, None)
        blobs.append(blob)
    return json.dumps(blobs, sort_keys=True)


def _guard_cost_seconds(iterations: int = 1_000_000) -> float:
    """Amortised cost of one dormant guard (`STATE.enabled` read)."""
    sink = False
    t0 = time.perf_counter()
    for _ in range(iterations):
        if STATE.enabled:
            sink = True  # pragma: no cover - state is dormant here
    elapsed = time.perf_counter() - t0
    assert not sink
    return elapsed / iterations


class _CountingState(ObservabilityState):
    """``ObservabilityState`` whose ``enabled`` reads are counted.

    It adds no slots, so the process-global ``STATE`` can take this class
    for one run and every module reading it is counted.
    """

    __slots__ = ()
    reads = 0

    @property
    def enabled(self) -> bool:
        _CountingState.reads += 1
        return ObservabilityState.enabled.__get__(self)

    @enabled.setter
    def enabled(self, value: bool) -> None:
        ObservabilityState.enabled.__set__(self, value)


def _count_guards(spec) -> int:
    """Guards one dormant run of the cell executes.

    Every ``STATE.enabled`` read, plus an upper bound on the simulator's
    ``recorder is not None`` checks: ``3 + 2 * n_partitions`` per call,
    whatever the schedule's sync.
    """
    simulate = harness.simulate
    recorder_checks = 0

    def counting_simulate(schedule, *args, **kwargs):
        nonlocal recorder_checks
        recorder_checks += 3 + 2 * schedule.n_partitions
        return simulate(schedule, *args, **kwargs)

    _CountingState.reads = 0
    STATE.__class__ = _CountingState
    try:
        with mock.patch.object(harness, "simulate", counting_simulate):
            _run_cell(spec)
    finally:
        STATE.__class__ = ObservabilityState
    return _CountingState.reads + recorder_checks


def _run_cell(spec):
    harness = Harness(machines=["laptop4"], kernels=["sptrsv"])
    t0 = time.perf_counter()
    records = harness.run_suite([spec])
    return records, time.perf_counter() - t0


def main(budget_ms: float = DEFAULT_BUDGET_MS) -> int:
    spec = min(small_suite(), key=lambda s: s.build().n_rows)

    _run_cell(spec)  # warm-up: imports, allocator, caches
    best_s = float("inf")
    runs = []
    for _ in range(ROUNDS):
        records, elapsed = _run_cell(spec)
        runs.append(records)
        best_s = min(best_s, elapsed)

    # --- gate 1: dormant guard overhead bound -------------------------
    per_guard = _guard_cost_seconds()
    n_guards = _count_guards(spec)
    overhead_s = n_guards * per_guard
    ratio = overhead_s / best_s
    print(f"{spec.name}: cell best of {ROUNDS} = {best_s * 1e3:.1f} ms, "
          f"guard = {per_guard * 1e9:.1f} ns, "
          f"counted {n_guards} guards -> {overhead_s * 1e3:.2f} ms "
          f"({ratio * 100:.2f}% of cell)")
    ok = True
    if ratio > OVERHEAD_LIMIT:
        print(f"FAIL: dormant overhead bound {ratio * 100:.2f}% exceeds "
              f"{OVERHEAD_LIMIT * 100:.0f}%", file=sys.stderr)
        ok = False

    # --- gate 2: byte-identical records when off ----------------------
    baseline = _normalised_json(runs[0])
    for i, records in enumerate(runs[1:], start=2):
        if _normalised_json(records) != baseline:
            print(f"FAIL: dormant run {i} produced different records",
                  file=sys.stderr)
            ok = False
    with observed():
        traced_records, _ = _run_cell(spec)
    if _normalised_json(traced_records) != baseline:
        print("FAIL: enabling observability changed deterministic record "
              "fields", file=sys.stderr)
        ok = False
    else:
        print(f"records: {len(runs[0])} per run, byte-identical across "
              f"{ROUNDS} dormant runs and 1 observed run")

    # --- budget (smoke-regression tripwire, same spirit as smoke_inspector)
    best_ms = best_s * 1e3
    if best_ms > budget_ms:
        print(f"FAIL: cell takes {best_ms:.0f} ms, budget is "
              f"{budget_ms:.0f} ms", file=sys.stderr)
        ok = False
    if ok:
        print(f"OK: within budget of {budget_ms:.0f} ms, overhead bound "
              f"under {OVERHEAD_LIMIT * 100:.0f}%, records stable")
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        budget = float(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_BUDGET_MS
    except ValueError:
        print(
            f"usage: {sys.argv[0]} [budget_ms]  (budget_ms must be a number, "
            f"got {sys.argv[1]!r})",
            file=sys.stderr,
        )
        raise SystemExit(2)
    raise SystemExit(main(budget))
