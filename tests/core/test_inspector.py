"""Tests for the cached HDagg inspector."""

import numpy as np
import pytest

from repro.core import hdagg
from repro.core.inspector import HDaggInspector
from repro.graph import dag_from_matrix_lower
from repro.kernels import KERNELS


@pytest.fixture(scope="module")
def problem(request):
    mesh_nd = request.getfixturevalue("mesh_nd")
    kernel = KERNELS["spilu0"]
    g = kernel.dag(mesh_nd)
    return g, kernel.cost(mesh_nd)


def test_matches_one_shot_hdagg(problem):
    g, cost = problem
    insp = HDaggInspector(g, cost)
    for p in (2, 4):
        for eps in (0.1, 0.3):
            cached = insp.schedule(p, eps)
            direct = hdagg(g, cost, p, epsilon=eps)
            assert cached.execution_order().tolist() == direct.execution_order().tolist()
            assert cached.core_assignment().tolist() == direct.core_assignment().tolist()
            assert cached.fine_grained == direct.fine_grained


def test_schedules_are_cached(problem):
    g, cost = problem
    insp = HDaggInspector(g, cost)
    s1 = insp.schedule(4)
    s2 = insp.schedule(4)
    assert s1 is s2
    assert insp.cache_info()["schedules"] == 1


def test_grouping_shared_across_epsilons(problem):
    g, cost = problem
    insp = HDaggInspector(g, cost)
    insp.schedule(4, 0.1)
    insp.schedule(4, 0.5)
    insp.schedule(4, 0.9)
    info = insp.cache_info()
    assert info["groupings"] == 1  # same p -> same cap -> one grouping
    assert info["schedules"] == 3


def test_distinct_core_counts_get_distinct_groupings(problem):
    g, cost = problem
    insp = HDaggInspector(g, cost)
    insp.schedule(2)
    insp.schedule(8)
    assert insp.cache_info()["groupings"] == 2


def test_uncapped_mode_shares_one_grouping(problem):
    g, cost = problem
    insp = HDaggInspector(g, cost, group_cost_cap_fraction=None)
    insp.schedule(2)
    insp.schedule(8)
    assert insp.cache_info()["groupings"] == 1


def test_reduced_dag_exposed(problem):
    g, cost = problem
    insp = HDaggInspector(g, cost)
    assert insp.reduced_dag.n == g.n
    assert insp.reduced_dag.n_edges <= g.n_edges


def test_validates_cost_length(problem):
    g, _ = problem
    with pytest.raises(ValueError):
        HDaggInspector(g, np.ones(3))


def test_schedules_valid(problem):
    g, cost = problem
    insp = HDaggInspector(g, cost)
    for p in (1, 3, 6):
        insp.schedule(p).validate(g)


@pytest.mark.parametrize("backend", ["", "lbp=reference,transitive_reduction=reference"])
def test_schedules_are_digest_identical_to_hdagg(problem, backend, monkeypatch):
    """Reuse through the driver changes nothing: same bytes, same backend
    meta as the one-shot inspector, under the default and a non-default spec."""
    from repro.core.backends import ENV_VAR
    from tests.schedulers.test_golden_snapshots import schedule_digest

    monkeypatch.setenv(ENV_VAR, backend)
    g, cost = problem
    insp = HDaggInspector(g, cost)
    for p in (2, 4):
        for eps in (0.1, 0.3):
            cached = insp.schedule(p, eps)
            direct = hdagg(g, cost, p, epsilon=eps)
            assert schedule_digest(cached) == schedule_digest(direct)
            assert cached.meta["backend"] == direct.meta["backend"]
    assert insp.schedule(2, 0.1).meta["backend"] == (backend or "numpy")


def test_reuse_runs_only_the_threshold_passes(problem):
    g, cost = problem
    insp = HDaggInspector(g, cost)
    first = insp.schedule(4, 0.1)
    again = insp.schedule(4, 0.3)
    assert list(first.meta["stage_seconds"]) == ["aggregation", "coarsen", "lbp", "expand"]
    assert list(again.meta["stage_seconds"]) == ["lbp", "expand"]
