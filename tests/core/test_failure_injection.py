"""Failure injection: corrupted schedules must never pass validation.

Mutation-style tests: take a correct HDagg schedule and apply every
corruption an inspector bug could plausibly produce; each must be caught
by ``Schedule.validate`` or by the dependence-checking executor — never
silently accepted.
"""

import numpy as np
import pytest

from repro.core import Schedule, ScheduleError, hdagg
from repro.kernels import KERNELS, KernelError
from repro.sparse import lower_triangle

from ..conftest import partition_lists


@pytest.fixture
def setup(mesh_nd):
    kernel = KERNELS["sptrsv"]
    low = lower_triangle(mesh_nd)
    g = kernel.dag(low)
    s = hdagg(g, kernel.cost(low), 4)
    return kernel, low, g, s


def rebuild(s: Schedule, levels) -> Schedule:
    return Schedule.from_partitions(
        s.n, levels, sync=s.sync, algorithm=s.algorithm, n_cores=s.n_cores,
        fine_grained=s.fine_grained,
    )


def find_multi_vertex_partition(levels):
    for k, level in enumerate(levels):
        for j, (_, vertices) in enumerate(level):
            if vertices.size >= 2:
                return k, j
    pytest.skip("no multi-vertex partition in this schedule")


def test_dropped_vertex_detected(setup):
    kernel, low, g, s = setup
    levels = partition_lists(s)
    k, j = find_multi_vertex_partition(levels)
    core, vertices = levels[k][j]
    levels[k][j] = (core, vertices[1:])
    with pytest.raises(ScheduleError, match="never scheduled|missing"):
        rebuild(s, levels).validate(g)


def test_duplicated_vertex_detected(setup):
    kernel, low, g, s = setup
    levels = partition_lists(s)
    k, j = find_multi_vertex_partition(levels)
    core, vertices = levels[k][j]
    levels[k][j] = (core, np.concatenate([vertices, vertices[:1]]))
    with pytest.raises(ScheduleError, match="twice|duplicate"):
        rebuild(s, levels).validate(g)


def test_swapped_levels_detected(setup):
    kernel, low, g, s = setup
    if s.n_levels < 2:
        pytest.skip("single-level schedule")
    levels = partition_lists(s)
    levels[0], levels[-1] = levels[-1], levels[0]
    with pytest.raises(ScheduleError, match="dependence violated"):
        rebuild(s, levels).validate(g)


def test_reversed_partition_detected_somewhere(setup):
    """Reversing a partition's internal order breaks intra-partition deps
    (whenever the partition actually carries one)."""
    kernel, low, g, s = setup
    levels = partition_lists(s)
    tripped = False
    for k, level in enumerate(levels):
        for j, (core, vertices) in enumerate(level):
            if vertices.size < 2:
                continue
            level[j] = (core, vertices[::-1])
            try:
                rebuild(s, levels).validate(g)
            except ScheduleError:
                tripped = True
            level[j] = (core, vertices)
    assert tripped


def test_core_collision_detected(setup):
    kernel, low, g, s = setup
    levels = partition_lists(s)
    target = None
    for k, level in enumerate(levels):
        if len(level) >= 2 and all(core >= 0 for core, _ in level):
            target = k
            break
    if target is None:
        pytest.skip("no multi-partition static level")
    level = levels[target]
    level[1] = (level[0][0], level[1][1])
    with pytest.raises(ScheduleError, match="core"):
        rebuild(s, levels).validate(g)


def test_executor_is_second_line_of_defence(setup):
    """Even without validate(), the kernels refuse a bad order."""
    kernel, low, g, s = setup
    order = s.execution_order()[::-1].copy()
    with pytest.raises(KernelError):
        kernel.execute_in_order(low, order)


def test_foreign_vertex_detected(setup):
    kernel, low, g, s = setup
    levels = partition_lists(s)
    k, j = find_multi_vertex_partition(levels)
    core, vertices = levels[k][j]
    bad = vertices.copy()
    bad[0] = g.n - 1  # duplicate of some other partition's vertex
    levels[k][j] = (core, bad)
    with pytest.raises(ScheduleError):
        rebuild(s, levels).validate(g)


def test_wrong_graph_detected(setup):
    kernel, low, g, s = setup
    from repro.graph import DAG

    other = DAG.empty(g.n + 1)
    with pytest.raises(ScheduleError, match="covers"):
        s.validate(other)
