"""Tests for the record A/B diff tool."""

import dataclasses
import math

import pytest

from repro.runtime import LAPTOP4
from repro.suite import Harness, suite_by_name
from repro.suite.regression import (
    RecordDelta,
    classify_point_ratio,
    diff_records,
    regression_report,
)


@pytest.fixture(scope="module")
def records():
    h = Harness(machines=(LAPTOP4,), kernels=("sptrsv",), algorithms=("hdagg", "wavefront"))
    return h.run_matrix(suite_by_name()["mesh2d-s"])


def test_identical_runs_have_unit_ratios(records):
    deltas, gone, added = diff_records(records, records)
    assert not gone and not added
    assert len(deltas) == len(records)
    assert all(d.ratio == pytest.approx(1.0) for d in deltas)
    assert not any(d.regressed for d in deltas)


def test_detects_regression(records):
    slowed = [
        dataclasses.replace(r, speedup=r.speedup * (0.5 if r.algorithm == "hdagg" else 1.0))
        for r in records
    ]
    deltas, _, _ = diff_records(records, slowed)
    regressed = [d for d in deltas if d.regressed]
    assert len(regressed) == sum(1 for r in records if r.algorithm == "hdagg")
    report = regression_report(records, slowed)
    assert "regression(s)" in report
    assert "hdagg" in report


def test_detects_added_and_removed_cells(records):
    deltas, gone, added = diff_records(records[:-1], records[1:])
    assert len(gone) == 1 and len(added) == 1
    report = regression_report(records[:-1], records[1:])
    assert "only in OLD" in report and "only in NEW" in report


def test_clean_report(records):
    report = regression_report(records, records)
    assert "no regressions" in report
    assert "mean ratio 1.000" in report


def test_delta_properties():
    d = RecordDelta(key=("m", "k", "a", "x"), old_speedup=2.0, new_speedup=1.0)
    assert d.ratio == 0.5
    assert d.regressed
    assert not d.indeterminate


def test_bad_baseline_is_indeterminate_not_infinite():
    # a zero/negative/non-finite baseline supports no ratio: the cell is
    # flagged, never silently waved through as an infinite "improvement"
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        z = RecordDelta(key=("m", "k", "a", "x"), old_speedup=bad, new_speedup=1.0)
        assert z.indeterminate
        assert math.isnan(z.ratio)
        assert not z.regressed


def test_report_surfaces_indeterminate_cells(records):
    broken = [
        dataclasses.replace(r, speedup=0.0 if r.algorithm == "hdagg" else r.speedup)
        for r in records
    ]
    report = regression_report(broken, records)
    assert "indeterminate" in report
    n_bad = sum(1 for r in records if r.algorithm == "hdagg")
    assert f"{n_bad} cell(s) indeterminate" in report


def test_classify_point_ratio():
    assert classify_point_ratio(2.0, 1.0) == "regressed"
    assert classify_point_ratio(2.0, 2.0) == "ok"
    assert classify_point_ratio(2.0, 1.95) == "ok"  # above 0.95 threshold
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        assert classify_point_ratio(bad, 1.0) == "indeterminate"
    assert classify_point_ratio(1.0, float("nan")) == "indeterminate"
    assert classify_point_ratio(1.0, -0.5) == "indeterminate"
