"""Chaos + resume gate: seeded fault injection and journal round-trips.

CI's resilience smoke.  Three phases, all exiting non-zero on any violation:

1. **Chaos sweep** — for each seed, arm ``FaultPlan.chaos(seed)`` and run a
   small grid with failure isolation.  The gate is *zero unhandled
   exceptions*: every outcome must be a (possibly degraded) RunRecord or a
   structured FailureRecord, and re-running the seed must reproduce the
   exact same fired faults and rows (determinism).

2. **Resume round-trip** — run the grid with a journal and an injected
   crash partway through, then resume from the journal without faults.
   The resumed record list must be *bit-identical* (serialized form,
   wall-clock fields included for the replayed prefix) to an uninterrupted
   journaled run's.

3. **Dead worker** — run the grid with ``n_jobs=2`` and a journal while an
   injected ``pool.worker`` exit kills the worker of the second matrix.
   The run must fail at once with ``BrokenProcessPool``, and a second run
   on the same journal must give the rows of a clean run.

Usage::

    PYTHONPATH=src python benchmarks/chaos_resume.py [seed ...]
"""

from __future__ import annotations

import sys
import tempfile
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

from repro.core import ScheduleCache
from repro.resilience import FailureRecord
from repro.resilience.faults import FaultPlan, FaultSpec, armed
from repro.resilience.journal import RunJournal
from repro.suite import Harness
from repro.suite.harness import RunRecord
from repro.suite.matrices import SUITE
from repro.suite.storage import record_to_blob

DEFAULT_SEEDS = (0, 1, 2)
SPECS = SUITE[:3]

#: wall-clock fields that may differ between two computations of a row
TIMING_FIELDS = ("inspector_seconds", "stage_seconds", "schedule_cached")


def _strip(record: RunRecord) -> dict:
    return {k: v for k, v in record.__dict__.items() if k not in TIMING_FIELDS}


def _harness() -> Harness:
    return Harness(
        kernels=("sptrsv",),
        algorithms=("hdagg", "wavefront"),
        schedule_cache=ScheduleCache(),
    )


def chaos_round(seed: int) -> tuple:
    failures: list = []
    plan = FaultPlan.chaos(seed)
    with armed(plan):
        records = _harness().run_suite(SPECS, isolate_failures=True, failures=failures)
    for r in records:
        if not isinstance(r, RunRecord):
            raise AssertionError(f"seed {seed}: non-record row {r!r}")
    for f in failures:
        if not isinstance(f, FailureRecord) or not f.error_type:
            raise AssertionError(f"seed {seed}: unstructured failure {f!r}")
    fired = [(e.site, e.action, e.occurrence, e.label) for e in plan.fired]
    return fired, [_strip(r) for r in records], [f.as_dict() for f in failures]


def run_chaos(seeds) -> int:
    bad = 0
    for seed in seeds:
        try:
            first = chaos_round(seed)
            second = chaos_round(seed)
        except Exception as exc:  # the gate: nothing may escape unhandled
            print(f"FAIL seed {seed}: unhandled {type(exc).__name__}: {exc}")
            bad += 1
            continue
        if first != second:
            print(f"FAIL seed {seed}: chaos run is not deterministic")
            bad += 1
            continue
        fired, rows, failures = first
        degraded = sum(1 for r in rows if r.get("degraded"))
        print(
            f"ok seed {seed}: {len(fired)} faults fired, {len(rows)} records "
            f"({degraded} degraded), {len(failures)} isolated failures"
        )
    return bad


def run_resume_round_trip(workdir: Path) -> int:
    crash_path = workdir / "crashed.jsonl"
    clean_path = workdir / "clean.jsonl"

    # uninterrupted journaled run: the reference bytes
    reference = _harness().run_suite(SPECS, journal=str(clean_path))

    # crashed run: an injected failure on the last matrix kills the grid
    # after the earlier checkpoints were fsync'd
    plan = FaultPlan([FaultSpec("suite.matrix", "raise", at=len(SPECS) - 1)])
    try:
        with armed(plan):
            _harness().run_suite(SPECS, journal=str(crash_path))
    except RuntimeError:
        pass
    else:
        print("FAIL resume: the injected crash did not fire")
        return 1
    completed = RunJournal(crash_path, resume=True)
    n_done = len(completed.completed)
    completed.close()
    if n_done != len(SPECS) - 1:
        print(f"FAIL resume: expected {len(SPECS) - 1} checkpoints, found {n_done}")
        return 1

    # resume: replays the checkpoints verbatim, computes only the rest
    resumed = _harness().run_suite(SPECS, journal=str(crash_path))
    if [_strip(r) for r in resumed] != [_strip(r) for r in reference]:
        print("FAIL resume: resumed records differ from the uninterrupted run")
        return 1
    # the replayed prefix is bit-identical, wall-clock fields included
    j = RunJournal(crash_path, resume=True)
    for name in j.completed:
        got = [record_to_blob(r) for r in resumed if r.matrix == name]
        if got != j.record_blobs_for(name):
            print(f"FAIL resume: {name} rows were not replayed bit-identically")
            j.close()
            return 1
    j.close()
    print(f"ok resume: {len(resumed)} records, {n_done} replayed bit-identically")
    return 0


def run_dead_worker_round_trip(workdir: Path) -> int:
    path = workdir / "dead-worker.jsonl"
    reference = _harness().run_suite(SPECS)
    plan = FaultPlan([FaultSpec("pool.worker", "exit", times=-1, match=SPECS[1].name)])
    try:
        with armed(plan):
            _harness().run_suite(SPECS, n_jobs=2, journal=str(path))
    except BrokenProcessPool as exc:
        if SPECS[1].name not in str(exc):
            print(f"FAIL dead worker: the error does not name {SPECS[1].name}: {exc}")
            return 1
    else:
        print("FAIL dead worker: the killed worker did not fail the run")
        return 1
    resumed = _harness().run_suite(SPECS, n_jobs=2, journal=str(path))
    if [_strip(r) for r in resumed] != [_strip(r) for r in reference]:
        print("FAIL dead worker: resumed records differ from a clean run")
        return 1
    print(f"ok dead worker: the run failed fast, resuming gave {len(resumed)} records")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    seeds = tuple(int(a) for a in argv) or DEFAULT_SEEDS
    bad = run_chaos(seeds)
    with tempfile.TemporaryDirectory(prefix="chaos-resume-") as tmp:
        bad += run_resume_round_trip(Path(tmp))
        bad += run_dead_worker_round_trip(Path(tmp))
    if bad:
        print(f"{bad} resilience gate failure(s)")
        return 1
    print("resilience gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
