"""Dependence verifier: certification, refutation witnesses, meta stamping."""

import numpy as np
import pytest

from repro.analysis import assert_schedule_safe, find_dependence_witnesses, verify_dependences
from repro.core.schedule import Schedule, ScheduleError
from repro.graph import DAG, dag_from_matrix_lower
from repro.schedulers import SCHEDULERS


def _serial(order, n, *, algorithm="manual"):
    return Schedule.from_partitions(
        n=n,
        levels=[[(0, np.asarray(order, dtype=np.int64))]],
        sync="barrier",
        algorithm=algorithm,
        n_cores=1,
    )


@pytest.mark.parametrize("algo", sorted(SCHEDULERS))
def test_every_scheduler_certified(algo, mesh_nd):
    g = dag_from_matrix_lower(mesh_nd)
    s = SCHEDULERS[algo](g, np.ones(g.n), 4)
    report = verify_dependences(s, g)
    assert report.ok and report.certified
    assert report.n_edges == g.n_edges
    assert report.n_violations == 0 and not report.witnesses
    assert "certified" in report.describe()


def test_reversed_serial_schedule_refuted(diamond_dag):
    g = diamond_dag
    s = _serial(np.arange(g.n)[::-1], g.n)
    report = verify_dependences(s, g)
    assert not report.ok
    assert report.n_violations == g.n_edges  # every edge is backwards
    w = report.witnesses[0]
    assert (w.src, w.dst) in {(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)}
    assert "dependence violated" in w.describe()
    d = w.as_dict()
    assert d["src"] == w.src and d["dst_position"] == w.dst_position


def test_witnesses_minimal_first():
    # chain 0 -> 1 -> 2 -> 3 executed fully reversed: the witness whose
    # violation bites earliest (smallest dst level, then src) comes first
    g = DAG.from_edges(4, [0, 1, 2], [1, 2, 3])
    levels = [
        [(0, np.array([v]))] for v in (3, 2, 1, 0)
    ]
    s = Schedule.from_partitions(n=4, levels=levels, sync="barrier", algorithm="manual", n_cores=1)
    ws = find_dependence_witnesses(s, g, max_witnesses=3)
    assert [(w.src, w.dst) for w in ws] == [(2, 3), (1, 2), (0, 1)]
    assert ws[0].dst_level < ws[1].dst_level < ws[2].dst_level


def test_structural_error_reported(diamond_dag):
    # vertex 3 never scheduled: a cover defect, not an edge defect
    s = _serial([0, 1, 2], diamond_dag.n)
    report = verify_dependences(s, diamond_dag)
    assert not report.ok
    assert report.structural_error is not None
    assert not report.witnesses
    assert "structural" in report.describe()


def _corrupted_hdagg(g):
    import random

    from repro.resilience import corrupt_schedule

    return corrupt_schedule(SCHEDULERS["hdagg"](g, np.ones(g.n), 2), random.Random(0))


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda g: _serial([0, 1, 2, 2], g.n), "vertex 2 scheduled twice"),
        (lambda g: _serial([0, 1, 2], g.n), "vertex slots"),
        (
            lambda g: Schedule.from_partitions(
                g.n, [[(0, [0, 1, 3]), (0, [2])]], sync="barrier", algorithm="m", n_cores=2
            ),
            "core 0 used by two width-partitions in level 0",
        ),
        (_corrupted_hdagg, "vertex slots"),
    ],
    ids=["duplicate", "missing", "core-clash", "corrupt-schedule-fault"],
)
def test_structural_defects_reported(build, match, diamond_dag):
    s = build(diamond_dag)
    report = verify_dependences(s, diamond_dag, stamp_meta=False)
    assert not report.ok and not report.witnesses
    assert match in report.structural_error
    with pytest.raises(ScheduleError, match=match):
        s.validate(diamond_dag)


def test_skip_structural_check(diamond_dag):
    s = _serial([0, 1, 2], diamond_dag.n)
    report = verify_dependences(s, diamond_dag, structural=False)
    # even without the structural pass the missing vertex is not silently
    # waved through: its sentinel coordinates violate every incoming edge
    assert not report.ok and report.structural_error is None
    assert all(w.dst == 3 and w.dst_level == -1 for w in report.witnesses)


def test_empty_dag_certified():
    g = DAG.from_edges(3, [], [])
    s = _serial([2, 0, 1], 3)
    assert verify_dependences(s, g).ok


def test_meta_stamping_accumulates(diamond_dag):
    g = diamond_dag
    s = _serial(np.arange(g.n), g.n)
    r1 = verify_dependences(s, g)
    first = s.meta["stage_seconds"]["verify"]
    assert first >= r1.seconds > 0.0 or first == pytest.approx(r1.seconds)
    verify_dependences(s, g)
    assert s.meta["stage_seconds"]["verify"] > first


def test_stamp_meta_opt_out(diamond_dag):
    s = _serial(np.arange(4), 4)
    verify_dependences(s, diamond_dag, stamp_meta=False)
    assert "stage_seconds" not in s.meta


def test_assert_schedule_safe_raises_with_witness(diamond_dag):
    bad = _serial(np.arange(4)[::-1], 4)
    with pytest.raises(ScheduleError, match="dependence violated") as exc_info:
        assert_schedule_safe(bad, diamond_dag)
    w = exc_info.value.witness
    assert w is not None and w.src_level >= w.dst_level
    good = _serial(np.arange(4), 4)
    assert_schedule_safe(good, diamond_dag)
    assert good.meta["stage_seconds"]["verify"] > 0.0


def test_schedule_validate_carries_witness(diamond_dag):
    bad = _serial(np.arange(4)[::-1], 4)
    with pytest.raises(ScheduleError, match="dependence violated") as exc_info:
        bad.validate(diamond_dag)
    assert exc_info.value.witness is not None
