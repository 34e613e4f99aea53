"""Parallel experiment grid: pool-enabled runs must reproduce serial rows.

The harness fans matrices over a fork pool when ``n_jobs > 1``; every
metric field of every record must be identical to the serial run — only
wall-clock timing fields (and the cache flag) may differ between modes.
Failure rows, journal rows and progress output come from the one loop
both modes share, so they must match too.
"""

import multiprocessing
import pickle
import re
import threading

import numpy as np
import pytest

from repro.core import ScheduleCache
from repro.passes.base import MissingArtifactError
from repro.passes.executor import PipelineExecutionError
from repro.resilience.degrade import AttemptFailure, DegradationError
from repro.resilience.faults import FaultError, FaultPlan, FaultSpec, armed
from repro.resilience.journal import RunJournal
from repro.sparse.sanitize import CSRSanitizeError, sanitize_csr
from repro.suite import Harness
from repro.suite.matrices import SUITE, MatrixSpec
from repro.suite.storage import record_to_blob, records_from_json, records_to_json

#: fields that legitimately differ between two runs of the same grid
TIMING_FIELDS = {"inspector_seconds", "stage_seconds", "schedule_cached"}


def _strip(record):
    return {k: v for k, v in record.__dict__.items() if k not in TIMING_FIELDS}


@pytest.fixture(scope="module")
def small_specs():
    return SUITE[:3]


@pytest.fixture(scope="module")
def harness_kwargs():
    return dict(kernels=("sptrsv",), algorithms=("hdagg", "wavefront"))


def test_parallel_rows_match_serial(small_specs, harness_kwargs):
    serial = Harness(**harness_kwargs).run_suite(small_specs)
    parallel = Harness(**harness_kwargs).run_suite(small_specs, n_jobs=3)
    assert len(serial) == len(parallel) > 0
    for a, b in zip(serial, parallel):
        assert _strip(a) == _strip(b)


def test_parallel_rows_serialize_identically(small_specs, harness_kwargs):
    serial = Harness(**harness_kwargs).run_suite(small_specs)
    parallel = Harness(**harness_kwargs).run_suite(small_specs, n_jobs=2)
    # byte-identical JSON once timing fields are normalised away
    for records in (serial, parallel):
        for r in records:
            r.inspector_seconds = 0.0
            r.stage_seconds = {}
            r.schedule_cached = False
    assert records_to_json(serial) == records_to_json(parallel)
    # and the round-trip preserves the new fields
    back = records_from_json(records_to_json(parallel))
    assert [r.__dict__ for r in back] == [r.__dict__ for r in parallel]


def test_n_jobs_validation(small_specs, harness_kwargs):
    with pytest.raises(ValueError):
        Harness(**harness_kwargs).run_suite(small_specs, n_jobs=0)


def test_schedule_cache_hits_on_repeat(small_specs, harness_kwargs):
    cache = ScheduleCache()
    h = Harness(**harness_kwargs, schedule_cache=cache)
    first = h.run_suite(small_specs)
    assert cache.stats.misses == len(first)
    assert not any(r.schedule_cached for r in first)
    second = h.run_suite(small_specs)
    assert all(r.schedule_cached for r in second)
    assert cache.stats.hits == len(second)
    for a, b in zip(first, second):
        assert _strip(a) == _strip(b)


def test_hdagg_rows_carry_stage_timings(small_specs, harness_kwargs):
    records = Harness(**harness_kwargs).run_suite(small_specs[:1])
    hd = [r for r in records if r.algorithm == "hdagg"]
    assert hd
    for r in hd:
        assert {"transitive_reduction", "aggregation", "lbp", "expand"} <= set(
            r.stage_seconds
        )
        assert all(v >= 0.0 for v in r.stage_seconds.values())
        assert sum(r.stage_seconds.values()) <= r.inspector_seconds * 1.5 + 1.0


def _failing_spec():
    def build():
        raise ValueError("synthetic build failure")

    return MatrixSpec(name="broken", family="mesh2d", build=build)


def test_failure_and_journal_rows_match_serial(tmp_path, small_specs, harness_kwargs):
    """A matrix failing in a pool worker is isolated exactly like one
    failing in-process: the same failure row, in the list and the journal."""
    specs = [small_specs[0], _failing_spec(), small_specs[1]]
    runs = []
    for n_jobs in (1, 2):
        path = tmp_path / f"grid-{n_jobs}.jsonl"
        failures = []
        records = Harness(**harness_kwargs).run_suite(
            specs, n_jobs=n_jobs, isolate_failures=True, failures=failures, journal=str(path),
        )
        with RunJournal(path, resume=True) as j:
            runs.append(([_strip(r) for r in records], [f.as_dict() for f in failures],
                         j.completed, j.failures))
    assert runs[0] == runs[1]
    _, failures, completed, journaled = runs[1]
    assert failures == [{
        "matrix": "broken", "family": "mesh2d", "error_type": "ValueError",
        "message": "synthetic build failure", "site": None,
    }]
    assert completed == [small_specs[0].name, small_specs[1].name]
    assert journaled == failures


def test_pool_worker_raise_is_isolated(small_specs, harness_kwargs):
    failures = []
    name = small_specs[0].name
    plan = FaultPlan([FaultSpec("pool.worker", "raise", times=-1, match=name)])
    with armed(plan):
        records = Harness(**harness_kwargs).run_suite(
            small_specs, n_jobs=2, isolate_failures=True, failures=failures
        )
    assert [(f.matrix, f.error_type, f.site) for f in failures] == [
        (name, "FaultError", "pool.worker")
    ]
    # the worker's exception arrives whole, message included
    assert re.fullmatch(
        rf"injected fault at site 'pool.worker', occurrence \d+ \(label='{name}'\)",
        failures[0].message,
    )
    assert {r.matrix for r in records} == {s.name for s in small_specs[1:]}


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_progress_lines_match_serial(tmp_path, capsys, small_specs, harness_kwargs, n_jobs):
    path = tmp_path / "grid.jsonl"
    harness = Harness(**harness_kwargs)
    with RunJournal(path, fingerprint=harness.config_fingerprint(small_specs)) as j:
        j.append_matrix(
            small_specs[0].name,
            [record_to_blob(r) for r in harness.run_matrix(small_specs[0])],
        )
    harness.run_suite(small_specs, n_jobs=n_jobs, progress=True, journal=str(path))
    assert capsys.readouterr().out.splitlines() == [
        f"[1/3] {small_specs[0].name} (from journal)",
        f"[2/3] {small_specs[1].name}",
        f"[3/3] {small_specs[2].name}",
    ]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n_jobs", [1, 2])
def test_grid_leaves_no_threads_or_workers(tmp_path, small_specs, seed, n_jobs):
    """A chaos run with a journal and a schedule cache starts no thread
    that outlives it, and a pool leaves no worker process behind."""
    harness = Harness(
        kernels=("sptrsv",), algorithms=("hdagg", "wavefront"),
        schedule_cache=ScheduleCache(),
    )
    before = threading.active_count()
    with armed(FaultPlan.chaos(seed)):
        harness.run_suite(
            small_specs[:2], n_jobs=n_jobs, isolate_failures=True,
            journal=str(tmp_path / "grid.jsonl"),
        )
    assert threading.active_count() == before
    assert multiprocessing.active_children() == []


def _sanitize_error():
    arrays = (2, 2, np.array([0, 1, 5]), np.array([0, 7]), np.array([1.0, 2.0]))
    with pytest.raises(CSRSanitizeError) as info:
        sanitize_csr(arrays, repair=False)
    return info.value


@pytest.mark.parametrize(
    "make",
    [
        lambda: FaultError("suite.matrix", label="mesh2d-s", occurrence=3),
        _sanitize_error,
        lambda: DegradationError("hdagg", [AttemptFailure("hdagg", "KeyError", "x")]),
        lambda: PipelineExecutionError("hdagg", "lbp", "missing 'Bins'"),
        lambda: MissingArtifactError("DAG", ("Cost", "Cores")),
    ],
    ids=["FaultError", "CSRSanitizeError", "DegradationError",
         "PipelineExecutionError", "MissingArtifactError"],
)
def test_worker_exceptions_pickle_whole(make):
    """Pool workers send exceptions back pickled; the ones the grid raises
    must come back with the same type, message and attributes, or the
    parent cannot unpickle them and reports a dead worker instead."""
    exc = make()
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert back.__dict__ == exc.__dict__
