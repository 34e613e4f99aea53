"""Suite-run fault isolation and degenerate-input guards."""

import warnings

import numpy as np
import pytest

from repro.resilience import FailureRecord
from repro.sparse import csr_from_dense
from repro.suite import Harness
from repro.suite.matrices import SUITE, MatrixSpec
from repro.suite.storage import record_from_blob, record_to_blob


def _bad_spec(name="broken"):
    def build():
        raise ValueError("synthetic build failure")

    return MatrixSpec(name=name, family="mesh2d", build=build)


@pytest.fixture(scope="module")
def harness_kwargs():
    return dict(kernels=("sptrsv",), algorithms=("wavefront",))


class TestIsolation:
    def test_failure_isolated_into_structured_row(self, harness_kwargs):
        specs = [SUITE[0], _bad_spec(), SUITE[1]]
        failures = []
        records = Harness(**harness_kwargs).run_suite(
            specs, isolate_failures=True, failures=failures
        )
        assert {r.matrix for r in records} == {SUITE[0].name, SUITE[1].name}
        assert len(failures) == 1
        f = failures[0]
        assert isinstance(f, FailureRecord)
        assert f.matrix == "broken"
        assert f.error_type == "ValueError"
        assert "synthetic build failure" in f.message
        assert "broken" in f.describe()
        assert FailureRecord.from_dict(f.as_dict()) == f

    def test_without_isolation_error_names_matrix(self, harness_kwargs):
        specs = [SUITE[0], _bad_spec("dies-here")]
        with pytest.raises(RuntimeError, match="dies-here"):
            Harness(**harness_kwargs).run_suite(specs)

    def test_pool_mode_isolates_with_matrix_name(self, harness_kwargs):
        specs = [SUITE[0], _bad_spec("pool-broken"), SUITE[1]]
        failures = []
        records = Harness(**harness_kwargs).run_suite(
            specs, n_jobs=2, isolate_failures=True, failures=failures
        )
        assert {r.matrix for r in records} == {SUITE[0].name, SUITE[1].name}
        assert [f.matrix for f in failures] == ["pool-broken"]
        assert "synthetic build failure" in failures[0].message

    def test_pool_mode_without_isolation_names_matrix(self, harness_kwargs):
        specs = [SUITE[0], _bad_spec("pool-dies")]
        with pytest.raises(RuntimeError, match="pool-dies"):
            Harness(**harness_kwargs).run_suite(specs, n_jobs=2)


class TestZeroCycleGuards:
    """Empty / single-vertex matrices must not poison speedup with inf."""

    def _spec_for(self, dense, name):
        return MatrixSpec(name=name, family="mesh2d", build=lambda: csr_from_dense(dense))

    def test_empty_matrix_speedup_is_one(self, harness_kwargs):
        spec = self._spec_for(np.zeros((0, 0)), "empty")
        with pytest.warns(RuntimeWarning):
            records = Harness(**harness_kwargs).run_matrix(spec)
        for r in records:
            assert r.speedup == 1.0
            assert np.isfinite(r.speedup)
            assert r.nre == 1.0

    def test_single_vertex_matrix_finite_speedup(self, harness_kwargs):
        spec = self._spec_for(np.array([[2.0]]), "one-vertex")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            records = Harness(**harness_kwargs).run_matrix(spec)
        for r in records:
            assert np.isfinite(r.speedup) and r.speedup == 1.0

    def test_records_with_degenerate_rows_round_trip(self, harness_kwargs):
        spec = self._spec_for(np.zeros((0, 0)), "empty")
        with pytest.warns(RuntimeWarning):
            records = Harness(**harness_kwargs).run_matrix(spec)
        for r in records:
            assert record_from_blob(record_to_blob(r)) == r


class TestDormantBlobFormat:
    def test_dormant_fields_dropped_from_blobs(self, harness_kwargs):
        records = Harness(**harness_kwargs).run_suite(SUITE[:1])
        for r in records:
            blob = record_to_blob(r)
            assert "degraded" not in blob
            assert "degraded_from" not in blob
            assert record_from_blob(blob) == r

    def test_degraded_fields_survive_round_trip(self, harness_kwargs):
        records = Harness(**harness_kwargs).run_suite(SUITE[:1])
        r = records[0]
        r.degraded = True
        r.degraded_from = "hdagg"
        blob = record_to_blob(r)
        assert blob["degraded"] is True and blob["degraded_from"] == "hdagg"
        assert record_from_blob(blob) == r
