"""The harness on the schedule cache's reuse ladder: repair and ``--store``."""

from repro.core import ScheduleCache, active_tier, hdagg, schedule_key
from repro.sparse import csr_from_dense, poisson2d
from repro.suite import Harness
from repro.suite.cli import main
from repro.suite.matrices import MatrixSpec
from repro.suite.storage import load_records

from ..schedulers.test_golden_snapshots import schedule_digest

TIMING_FIELDS = {"inspector_seconds", "stage_seconds", "schedule_cached"}


def _strip(record):
    return {k: v for k, v in record.__dict__.items() if k not in TIMING_FIELDS}


def _mesh():
    return poisson2d(24, seed=1)


def _drifted_mesh():
    """The same mesh with one symmetric coupling dropped in three rows."""
    dense = _mesh().to_dense()
    for i in (100, 300, 450):
        dense[i, i - 1] = dense[i - 1, i] = 0.0
    return csr_from_dense(dense)


def test_same_named_drift_is_repaired(repair_rung):
    cache = ScheduleCache()
    # natural ordering keeps the drift local (ND would renumber the mesh)
    harness = Harness(machines=["laptop4"], kernels=["sptrsv"], ordering="natural",
                      schedule_cache=cache)
    first = harness.run_suite([MatrixSpec("drift", "mesh2d", _mesh)])
    drifted = MatrixSpec("drift", "mesh2d", _drifted_mesh)
    second = harness.run_suite([drifted])
    assert not any(r.schedule_repaired or r.schedule_cached for r in first)
    repaired = [r for r in second if r.schedule_repaired]
    assert [r.algorithm for r in repaired] == ["hdagg"]
    assert not any(r.schedule_cached or r.degraded for r in second)
    assert cache.repairs == 1
    # the repaired schedule is the one a fresh inspection builds
    art = harness.prepare(drifted).kernels["sptrsv"]
    g, cost = art["dag"], art["cost"]
    key = schedule_key(g, kernel="sptrsv", algorithm="hdagg", p=4,
                       epsilon=harness.epsilon, backend=active_tier())
    assert schedule_digest(cache.get(key)) == schedule_digest(
        hdagg(g, cost, 4, harness.epsilon)
    )


def _grid_args(store, records):
    return ["--experiment", "table1", "--matrices", "mesh2d-s", "--kernels", "sptrsv",
            "--machines", "laptop4", "--store", str(store), "--save-records", str(records)]


def test_store_round_trip_across_cli_runs(tmp_path):
    store = tmp_path / "store"
    assert main(_grid_args(store, tmp_path / "a.json")) == 0
    assert main(_grid_args(store, tmp_path / "b.json")) == 0
    first = load_records(tmp_path / "a.json")
    second = load_records(tmp_path / "b.json")
    assert first and not any(r.schedule_cached for r in first)
    assert all(r.schedule_cached for r in second)
    assert [_strip(r) for r in second] == [_strip(r) for r in first]


def test_store_rejects_parallel_jobs(tmp_path, capsys):
    args = _grid_args(tmp_path / "store", tmp_path / "a.json") + ["--jobs", "2"]
    assert main(args) == 2
    assert "--store requires --jobs 1" in capsys.readouterr().err
    assert not (tmp_path / "store").exists()
