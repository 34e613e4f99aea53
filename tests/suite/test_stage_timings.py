"""Stage-timing coverage for StageTimer / RunRecord (satellite S4).

``RunRecord.stage_seconds`` must be a truthful breakdown of
``inspector_seconds``: known stage keys only, non-negative values, and a
sum that never exceeds the total it claims to break down.  The cache-hit
path is the historical trap — a hit re-runs only the verification, so
copying the producing run's stage breakdown would report stages that
never executed (and sum to more than the hit's own inspector time).
"""

import pytest

from repro.core.schedule_cache import ScheduleCache
from repro.passes import PASS_GROUPS
from repro.suite.harness import Harness
from repro.suite.matrices import small_suite

#: every stage an inspector may report — the registered pass names — plus
#: the harness's own verify step
KNOWN_STAGES = {
    p.name for group in PASS_GROUPS.values() for p in group.passes
} | {"verify"}

#: sum(stages) <= total needs slack: the stages are timed inside the same
#: interval as the total, but each ``perf_counter`` pair has its own jitter
SLACK = 1e-3


@pytest.fixture(scope="module")
def spec():
    return min(small_suite(), key=lambda s: s.build().n_rows)


@pytest.fixture(scope="module")
def records(spec):
    harness = Harness(machines=["laptop4"], kernels=["sptrsv"])
    return harness.run_suite([spec])


def test_stage_keys_are_known_and_values_sane(records):
    assert records
    for r in records:
        assert set(r.stage_seconds) <= KNOWN_STAGES, (
            f"{r.algorithm}: unknown stage keys "
            f"{set(r.stage_seconds) - KNOWN_STAGES}"
        )
        for stage, seconds in r.stage_seconds.items():
            assert seconds >= 0.0, f"{r.algorithm}/{stage}: negative timing"
        assert r.inspector_seconds >= 0.0


def test_stage_sum_bounded_by_inspector_seconds(records):
    for r in records:
        total = sum(r.stage_seconds.values())
        assert total <= r.inspector_seconds + SLACK, (
            f"{r.algorithm}: stages sum to {total:.6f}s but "
            f"inspector_seconds is {r.inspector_seconds:.6f}s — the "
            f"breakdown claims more time than the run took"
        )


def test_hdagg_records_cover_the_full_pipeline(records):
    """HDagg's inspector stamps all five algorithm stages plus verify."""
    hdagg = [r for r in records if r.algorithm == "hdagg" and not r.degraded]
    assert hdagg
    for r in hdagg:
        assert {"transitive_reduction", "aggregation", "coarsen",
                "lbp", "expand"} <= set(r.stage_seconds)
        assert r.stage_seconds["verify"] > 0.0


def test_cache_hit_reports_only_the_verify_stage(spec):
    """A cached schedule re-ran nothing but verification — its record must
    say exactly that, not echo the producer's stale stage breakdown."""
    cache = ScheduleCache()
    harness = Harness(machines=["laptop4"], kernels=["sptrsv"],
                      schedule_cache=cache)
    first = harness.run_suite([spec])
    second = harness.run_suite([spec])
    assert not any(r.schedule_cached for r in first)
    hits = [r for r in second if r.schedule_cached]
    assert hits, "second run produced no cache hits"
    for r in hits:
        assert set(r.stage_seconds) == {"verify"}
        assert r.stage_seconds["verify"] == pytest.approx(r.inspector_seconds)
    # and the non-cached baseline invariant still holds on both runs
    for r in first + second:
        assert sum(r.stage_seconds.values()) <= r.inspector_seconds + SLACK
