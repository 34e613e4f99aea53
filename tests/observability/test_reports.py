"""Derived trace reports: per-core utilization, sync-cost breakdown, imbalance.

Hand-built timelines pin every figure the reports print; simulated
timelines over the schedulers check the accounting identities on real
traces (each core's segments cover the wall, levelled schedules wait only
at barriers, point-to-point schedules only on dependences).
"""

import numpy as np
import pytest

from repro.kernels import KERNELS
from repro.observability.reports import (
    imbalance_comparison,
    imbalance_report,
    sync_breakdown,
    sync_report,
    utilization_report,
    utilization_rows,
)
from repro.observability.timeline import TimelineRecorder
from repro.runtime.machine import MACHINES
from repro.runtime.simulator import simulate
from repro.schedulers import SCHEDULERS
from repro.sparse import apply_ordering, lower_triangle, poisson2d


def _timeline():
    """Two cores over [0, 10]: busy, a barrier, and three p2p waits."""
    rec = TimelineRecorder()
    rec.open(2)
    rec.wall_t0, rec.wall_t1 = 0.0, 10.0
    rec.record(0, "busy", 0.0, 4.0, vertex=0)
    rec.record(0, "barrier_wait", 4.0, 5.0)
    rec.record(0, "busy", 5.0, 8.0, vertex=2)
    rec.record(1, "p2p_wait", 0.0, 2.0, vertex=1, dependence=0)
    rec.record(1, "busy", 2.0, 3.0, vertex=1)
    rec.record(1, "p2p_wait", 3.0, 4.0, vertex=3, dependence=0)
    rec.record(1, "p2p_wait", 4.0, 8.0, vertex=3, dependence=2)
    rec.record(1, "p2p_wait", 8.0, 8.5, vertex=4)  # unattributed wait
    rec.record(1, "busy", 8.5, 9.0, vertex=3)
    return rec.finalize()


class TestUtilization:
    def test_rows_per_core(self):
        rows = utilization_rows(_timeline())
        assert [r[0] for r in rows] == [0, 1]
        assert rows[0][1:] == pytest.approx([7.0, 1.0, 0.0, 2.0, 70.0])
        assert rows[1][1:] == pytest.approx([1.5, 0.0, 7.5, 1.0, 15.0])

    def test_each_row_covers_the_wall(self):
        tl = _timeline()
        for core, busy, barrier, p2p, idle, _ in utilization_rows(tl):
            assert busy + barrier + p2p + idle == pytest.approx(tl.wall), core

    def test_rows_sorted_by_core_id(self):
        rec = TimelineRecorder()
        rec.record(3, "busy", 0.0, 1.0)
        rec.record(1, "busy", 0.0, 2.0)
        assert [r[0] for r in utilization_rows(rec.finalize())] == [1, 3]

    def test_zero_wall_reports_zero_busy_share(self):
        rec = TimelineRecorder()
        rec.open(2)
        rows = utilization_rows(rec.finalize())
        assert [r[-1] for r in rows] == [0.0, 0.0]

    def test_report_names_the_unit_and_lists_every_core(self):
        text = utilization_report(_timeline(), unit="cycles")
        lines = text.splitlines()
        assert lines[0] == "Per-core utilization"
        assert "busy (cycles)" in lines[2] and "idle (cycles)" in lines[2]
        assert len(lines) == 4 + 2  # title, rule, header, dashes, one row per core
        assert lines[4].split()[0] == "0" and lines[5].split()[0] == "1"


class TestSyncBreakdown:
    def test_totals_by_mechanism(self):
        b = sync_breakdown(_timeline())
        assert b["busy"] == pytest.approx(8.5)
        assert b["barrier_wait"] == pytest.approx(1.0)
        assert b["p2p_wait"] == pytest.approx(7.5)
        assert b["idle"] == pytest.approx(3.0)
        assert b["sync_total"] == pytest.approx(b["barrier_wait"] + b["p2p_wait"])

    def test_top_dependences_ranked_by_time_waited(self):
        top = sync_breakdown(_timeline())["top_dependences"]
        # one long wait on vertex 2 outranks two short ones on vertex 0
        assert top == [
            {"vertex": 2, "waited": pytest.approx(4.0), "n_waits": 1},
            {"vertex": 0, "waited": pytest.approx(3.0), "n_waits": 2},
        ]
        # a wait without a dependence counts in p2p_wait, attributed to nobody
        assert sum(d["waited"] for d in top) == pytest.approx(7.0)

    def test_top_truncates(self):
        top = sync_breakdown(_timeline(), top=1)["top_dependences"]
        assert [d["vertex"] for d in top] == [2]

    def test_empty_timeline(self):
        b = sync_breakdown(TimelineRecorder().finalize())
        assert b["sync_total"] == 0.0 and b["busy"] == 0.0
        assert b["top_dependences"] == []

    def test_report_lists_waited_on_vertices(self):
        text = sync_report(_timeline(), unit="cycles")
        assert text.splitlines()[0] == "Synchronisation cost breakdown"
        assert "sync total   8.5 cycles" in text
        tail = text.split("most-waited-on dependences:\n")[1].splitlines()
        assert tail == ["  vertex 2: 4 cycles over 1 waits", "  vertex 0: 3 cycles over 2 waits"]

    def test_report_without_p2p_waits_has_no_attribution(self):
        rec = TimelineRecorder()
        rec.record(0, "busy", 0.0, 1.0)
        rec.record(0, "barrier_wait", 1.0, 2.0)
        text = sync_report(rec.finalize())
        assert "barrier wait 1 s" in text
        assert "most-waited-on" not in text


def _simulated(algorithm):
    ordered, _ = apply_ordering(poisson2d(10, seed=3), "nd")
    low = lower_triangle(ordered)
    kernel = KERNELS["sptrsv"]
    g, cost = kernel.dag(low), kernel.cost(low)
    machine = MACHINES["laptop4"]
    schedule = SCHEDULERS[algorithm](g, cost, machine.n_cores)
    result = simulate(schedule, g, cost, kernel.memory_model(low, g), machine,
                      collect_timeline=True)
    return schedule, cost, result


@pytest.mark.parametrize("algorithm", ["hdagg", "wavefront", "spmp", "serial"])
def test_simulated_trace_accounting(algorithm):
    schedule, cost, result = _simulated(algorithm)
    tl = result.timeline
    b = sync_breakdown(tl)
    total = b["busy"] + b["sync_total"] + b["idle"]
    assert total == pytest.approx(tl.wall * tl.n_cores, rel=1e-9)
    assert b["busy"] == pytest.approx(float(np.sum(result.core_busy_cycles)), rel=1e-9)
    if schedule.sync == "p2p":
        assert b["barrier_wait"] == 0.0
    else:
        assert b["p2p_wait"] == 0.0 and b["top_dependences"] == []
    rows = utilization_rows(tl)
    assert [r[1] for r in rows] == pytest.approx(result.core_busy_cycles.tolist())


class TestImbalanceReport:
    def test_rows_without_simulated_pg(self):
        schedule, cost, result = _simulated("hdagg")
        text = imbalance_report(result.timeline, schedule, cost)
        assert "traced PG (timeline busy)" in text
        assert "predicted PGP (inspector)" in text
        assert "simulated PG" not in text

    def test_rows_with_simulated_pg_agree_with_comparison(self):
        schedule, cost, result = _simulated("hdagg")
        pg = result.potential_gain
        text = imbalance_report(result.timeline, schedule, cost, simulated_pg=pg)
        c = imbalance_comparison(result.timeline, schedule, cost, simulated_pg=pg)
        assert "simulated PG" in text and "|traced - simulated|" in text
        assert c["traced_vs_simulated"] == pytest.approx(0.0, abs=1e-9)
