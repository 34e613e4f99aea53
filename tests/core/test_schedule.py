"""Tests for the Schedule container and its validation."""

import numpy as np
import pytest

from repro.core import Schedule, ScheduleError
from repro.graph import DAG


@pytest.fixture
def g():
    # 0 -> 1 -> 3, 0 -> 2 -> 3
    return DAG.from_edges(4, [0, 0, 1, 2], [1, 2, 3, 3])


def make(levels, *, sync="barrier", p=2, n=4):
    return Schedule.from_partitions(n=n, levels=levels, sync=sync, algorithm="test", n_cores=p)


def test_basic_shape(g):
    s = make(
        [
            [(0, np.array([0]))],
            [(0, np.array([1])), (1, np.array([2]))],
            [(0, np.array([3]))],
        ]
    )
    s.validate(g)
    assert s.n_levels == 3
    assert s.n_partitions == 4
    assert s.n_barriers() == 2
    assert s.execution_order().tolist() == [0, 1, 2, 3]


def test_per_vertex_maps(g):
    s = make(
        [
            [(0, np.array([0]))],
            [(0, np.array([1, 3])), (1, np.array([2]))],
        ]
    )
    # structurally fine; edge 2 -> 3 crosses partitions within the level, so
    # only the structural half of validate() applies here
    s.validate(g, check_dependences=False)
    assert s.level_of().tolist() == [0, 1, 1, 1]
    assert s.partition_of().tolist() == [0, 1, 2, 1]
    assert s.position_of().tolist() == [0, 0, 0, 1]
    assert s.core_assignment().tolist() == [0, 0, 1, 0]


def test_p2p_has_no_barriers(g):
    s = make(
        [
            [(0, np.array([0]))],
            [(0, np.array([1])), (1, np.array([2]))],
            [(0, np.array([3]))],
        ],
        sync="p2p",
    )
    assert s.n_barriers() == 0


def test_unknown_sync_rejected():
    with pytest.raises(ScheduleError):
        make([], sync="magic")


def test_bad_cores_rejected():
    with pytest.raises(ScheduleError):
        make([], p=0)


def test_empty_partition_rejected():
    with pytest.raises(ScheduleError, match="empty"):
        make([[(0, np.array([0, 1, 2, 3])), (1, np.array([], dtype=np.int64))]])


#: a well-formed two-level schedule of range(4), one partition per level
_ARRAYS = dict(order=[0, 1, 2, 3], part_ptr=[0, 2, 4], part_core=[0, 1], level_ptr=[0, 1, 2])


@pytest.mark.parametrize(
    "override, match",
    [
        ({"part_ptr": [0, 0, 2, 4], "part_core": [0, 1, 0], "level_ptr": [0, 2, 3]}, "empty"),
        ({"part_ptr": [1, 2, 4]}, "part_ptr must start at 0"),
        ({"part_ptr": [0, 2, 3]}, "part_ptr ends at 3"),
        ({"part_ptr": [0, 3, 2, 4], "part_core": [0, 1, 0], "level_ptr": [0, 1, 3]}, "decreases"),
        ({"level_ptr": [0, 2, 1, 2]}, "level_ptr decreases"),
        ({"level_ptr": [1, 2]}, "level_ptr must start at 0"),
        ({"level_ptr": [0, 1]}, "level_ptr ends at 1"),
        ({"part_core": [0]}, "part_core has 1 entries"),
        ({"order": [[0, 1], [2, 3]]}, "1-D"),
    ],
)
def test_malformed_arrays_rejected(override, match):
    Schedule(n=4, **_ARRAYS, sync="barrier", algorithm="test", n_cores=2)  # the base is fine
    with pytest.raises(ScheduleError, match=match):
        Schedule(
            n=4, **dict(_ARRAYS, **override), sync="barrier", algorithm="test", n_cores=2
        )


def test_validate_detects_missing_vertex(g):
    s = make([[(0, np.array([0, 1, 2]))]])
    with pytest.raises(ScheduleError, match="never scheduled|missing"):
        s.validate(g)


def test_validate_detects_duplicate_vertex(g):
    s = make(
        [
            [(0, np.array([0, 1, 2, 3]))],
            [(0, np.array([3]))],
        ]
    )
    with pytest.raises(ScheduleError, match="twice|duplicate"):
        s.validate(g)


def test_validate_detects_core_clash(g):
    s = make(
        [[(0, np.array([0, 1, 3])), (0, np.array([2]))]]
    )
    with pytest.raises(ScheduleError, match="core 0"):
        s.validate(g)


def test_validate_detects_same_level_dependence(g):
    s = make(
        [[(0, np.array([0])), (1, np.array([1, 2, 3]))]]
    )
    with pytest.raises(ScheduleError, match="dependence violated"):
        s.validate(g)


def test_validate_detects_wrong_order_within_partition(g):
    s = make([[(0, np.array([3, 2, 1, 0]))]])
    with pytest.raises(ScheduleError, match="dependence violated"):
        s.validate(g)


def test_validate_accepts_in_partition_order(g):
    s = make([[(0, np.array([0, 1, 2, 3]))]])
    s.validate(g)


def test_validate_size_mismatch(g):
    s = make([[(0, np.array([0, 1, 2]))]], n=3)
    with pytest.raises(ScheduleError, match="covers"):
        s.validate(g)


def test_level_loads_and_dynamic(g):
    cost = np.array([1.0, 2.0, 3.0, 4.0])
    s = make(
        [
            [(-1, np.array([0])), (-1, np.array([1]))],
            [(0, np.array([2, 3]))],
        ]
    )
    loads = s.level_loads(cost)
    assert sorted(loads[0].tolist()) == [1.0, 2.0]  # dynamic -> least loaded
    assert loads[1].tolist() == [7.0, 0.0]


def test_summary(g):
    s = make([[(0, np.array([0, 1, 2, 3]))]])
    info = s.summary(np.ones(4))
    assert info["n_levels"] == 1
    assert info["n_partitions"] == 1
    assert "accumulated_pgp" in info
