"""JSONL run journal: checkpointing, corruption tolerance, bit-identical resume."""

import json
import warnings

import pytest

from repro.resilience import FailureRecord
from repro.resilience.faults import FaultError, FaultPlan, FaultSpec, armed
from repro.resilience.journal import JOURNAL_VERSION, JournalError, RunJournal
from repro.suite import Harness
from repro.suite.matrices import SUITE
from repro.suite.storage import record_to_blob

#: wall-clock fields that legitimately differ between two computations
TIMING_FIELDS = {"inspector_seconds", "stage_seconds", "schedule_cached"}


def _strip(record):
    return {k: v for k, v in record.__dict__.items() if k not in TIMING_FIELDS}


class TestJournalFormat:
    def test_fresh_journal_writes_header(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path, fingerprint="abc") as j:
            j.append_matrix("m1", [{"x": 1}])
            j.append_failure({"matrix": "m2", "error_type": "E"})
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows[0] == {"kind": "header", "version": JOURNAL_VERSION, "fingerprint": "abc"}
        assert rows[1] == {"kind": "matrix", "matrix": "m1", "records": [{"x": 1}]}
        assert rows[2] == {"kind": "failure", "failure": {"matrix": "m2", "error_type": "E"}}

    def test_reload_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path, fingerprint="abc") as j:
            j.append_matrix("m1", [{"x": 1}, {"x": 2}])
        back = RunJournal(path, fingerprint="abc", resume=True)
        assert back.completed == ["m1"]
        assert back.has("m1") and not back.has("m2")
        assert back.record_blobs_for("m1") == [{"x": 1}, {"x": 2}]
        back.close()

    def test_existing_journal_refused_without_resume(self, tmp_path):
        path = tmp_path / "run.jsonl"
        RunJournal(path, fingerprint="abc").close()
        with pytest.raises(JournalError, match="already exists"):
            RunJournal(path, fingerprint="abc")

    def test_fingerprint_mismatch_refused(self, tmp_path):
        path = tmp_path / "run.jsonl"
        RunJournal(path, fingerprint="grid-a").close()
        with pytest.raises(JournalError, match="different grid"):
            RunJournal(path, fingerprint="grid-b", resume=True)

    def test_trailing_half_written_line_tolerated(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path, fingerprint="abc") as j:
            j.append_matrix("m1", [{"x": 1}])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "matrix", "matrix": "m2", "rec')  # kill -9 signature
        with pytest.warns(RuntimeWarning, match="torn trailing journal line"):
            back = RunJournal(path, fingerprint="abc", resume=True)
        assert back.completed == ["m1"]
        back.close()

    def test_torn_tail_is_truncated_so_appends_stay_parseable(self, tmp_path):
        # Regression: the torn line used to be merely *skipped*, leaving its
        # bytes in place for the append handle to splice the next checkpoint
        # onto — silently corrupting a healthy row.  Resume must truncate.
        path = tmp_path / "run.jsonl"
        with RunJournal(path, fingerprint="abc") as j:
            j.append_matrix("m1", [{"x": 1}])
        with open(path, "ab") as fh:
            fh.write(b'{"kind": "matrix", "matrix": "m2", "rec')
        with pytest.warns(RuntimeWarning, match="torn trailing"):
            with RunJournal(path, fingerprint="abc", resume=True) as back:
                back.append_matrix("m3", [{"y": 2}])
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r.get("matrix") for r in rows] == [None, "m1", "m3"]
        # and a second resume sees both matrices with no warning at all
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with RunJournal(path, fingerprint="abc", resume=True) as again:
                assert again.completed == ["m1", "m3"]

    def test_torn_multibyte_tail_tolerated(self, tmp_path):
        # a kill mid-append can cut a UTF-8 sequence in half; resume must
        # treat that like any other torn tail, not die on a decode error
        path = tmp_path / "run.jsonl"
        with RunJournal(path, fingerprint="abc") as j:
            j.append_matrix("m1", [{"x": 1}])
        with open(path, "ab") as fh:
            fh.write('{"kind": "matrix", "matrix": "é'.encode("utf-8")[:-1])
        with pytest.warns(RuntimeWarning, match="torn trailing"):
            back = RunJournal(path, fingerprint="abc", resume=True)
        assert back.completed == ["m1"]
        back.close()

    def test_mid_file_corruption_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path, fingerprint="abc") as j:
            j.append_matrix("m1", [{"x": 1}])
        text = path.read_text().splitlines()
        text[1] = "NOT JSON"
        path.write_text("\n".join(text + ['{"kind": "matrix", "matrix": "m2", "records": []}']) + "\n")
        with pytest.raises(JournalError, match="corrupt journal line"):
            RunJournal(path, fingerprint="abc", resume=True)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"kind": "matrix", "matrix": "m", "records": []}\n')
        with pytest.raises(JournalError, match="not a journal header"):
            RunJournal(path, resume=True)


class TestHarnessResume:
    @pytest.fixture(scope="class")
    def specs(self):
        return SUITE[:3]

    @pytest.fixture(scope="class")
    def harness_kwargs(self):
        return dict(kernels=("sptrsv",), algorithms=("hdagg", "wavefront"))

    def test_killed_run_resumes_bit_identically(self, tmp_path, specs, harness_kwargs):
        path = tmp_path / "grid.jsonl"
        # first run dies on the second matrix (an injected crash playing the
        # role of kill -9 after the first checkpoint was fsync'd)
        plan = FaultPlan([FaultSpec("suite.matrix", "raise", at=1)])
        h1 = Harness(**harness_kwargs)
        with armed(plan):
            with pytest.raises(RuntimeError, match=specs[1].name):
                h1.run_suite(specs, journal=str(path))
        j = RunJournal(path, resume=True)
        assert j.completed == [specs[0].name]
        first_blobs = j.record_blobs_for(specs[0].name)
        j.close()

        # the resumed run replays the checkpoint verbatim and finishes the rest
        h2 = Harness(**harness_kwargs)
        resumed = h2.run_suite(specs, journal=str(path))
        reference = Harness(**harness_kwargs).run_suite(specs)
        assert [_strip(r) for r in resumed] == [_strip(r) for r in reference]
        # bit-identical: the first matrix's rows are the journaled bytes,
        # wall-clock fields included
        n0 = len(first_blobs)
        assert [record_to_blob(r) for r in resumed[:n0]] == first_blobs

    def test_fingerprint_guards_grid_changes(self, tmp_path, specs, harness_kwargs):
        path = tmp_path / "grid.jsonl"
        h = Harness(**harness_kwargs)
        h.run_suite(specs[:1], journal=str(path))
        other = Harness(kernels=("spic0",), algorithms=("wavefront",))
        with pytest.raises(JournalError, match="different grid"):
            other.run_suite(specs[:1], journal=str(path))

    def test_failures_are_journaled(self, tmp_path, specs, harness_kwargs):
        path = tmp_path / "grid.jsonl"
        plan = FaultPlan([FaultSpec("suite.matrix", "raise", at=0, match=specs[0].name)])
        h = Harness(**harness_kwargs)
        with armed(plan):
            records = h.run_suite(specs[:2], journal=str(path), isolate_failures=True)
        assert records  # the healthy matrix still ran
        j = RunJournal(path, resume=True)
        assert [f["matrix"] for f in j.failures] == [specs[0].name]
        assert j.failures[0]["error_type"] == "FaultError"
        j.close()

    def test_older_failure_rows_still_resume(self, tmp_path, specs, harness_kwargs):
        """Journals from before ``FailureRecord`` lost ``stage`` and
        ``attempts`` carry both in their failure rows; they still load, and
        a resume re-runs the failed matrix."""
        path = tmp_path / "grid.jsonl"
        h = Harness(**harness_kwargs)
        grid = list(specs[:2])
        first = h.run_matrix(grid[0])
        old_row = {
            "matrix": grid[1].name,
            "family": grid[1].family,
            "stage": "worker",
            "error_type": "FaultError",
            "message": "injected fault at site 'suite.matrix', occurrence 1",
            "attempts": 2,
            "site": "suite.matrix",
        }
        with RunJournal(path, fingerprint=h.config_fingerprint(grid)) as j:
            j.append_matrix(grid[0].name, [record_to_blob(r) for r in first])
            j.append_failure(old_row)
        back = RunJournal(path, fingerprint=h.config_fingerprint(grid), resume=True)
        assert back.failures == [old_row]
        assert FailureRecord.from_dict(back.failures[0]) == FailureRecord(
            matrix=grid[1].name,
            family=grid[1].family,
            error_type="FaultError",
            message=old_row["message"],
            site="suite.matrix",
        )
        back.close()
        resumed = Harness(**harness_kwargs).run_suite(grid, journal=str(path))
        reference = Harness(**harness_kwargs).run_suite(grid)
        assert [_strip(r) for r in resumed] == [_strip(r) for r in reference]
        assert [record_to_blob(r) for r in resumed[: len(first)]] == [
            record_to_blob(r) for r in first
        ]
        done = RunJournal(path, resume=True)
        assert done.completed == [s.name for s in grid]
        done.close()
