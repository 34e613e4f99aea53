"""Tests for the PGP metric (Equation 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import accumulated_pgp, pgp, pgp_worst_case
from repro.core.schedule import Schedule


def test_balanced_is_zero():
    assert pgp([5.0, 5.0, 5.0]) == 0.0


def test_single_loaded_core():
    assert pgp([10.0, 0.0]) == pytest.approx(0.5)  # paper's p = 2 example


def test_worst_case_formula():
    for p in (1, 2, 4, 20):
        loads = [1.0] + [0.0] * (p - 1)
        assert pgp(loads) == pytest.approx(pgp_worst_case(p))


def test_empty_and_zero():
    assert pgp([]) == 0.0
    assert pgp([0.0, 0.0]) == 0.0


def test_worst_case_rejects_bad_p():
    with pytest.raises(ValueError):
        pgp_worst_case(0)


@given(st.lists(st.floats(0, 1e6), min_size=1, max_size=32))
@settings(max_examples=100, deadline=None)
def test_range_property(loads):
    v = pgp(loads)
    assert 0.0 <= v <= 1.0
    p = len(loads)
    assert v <= pgp_worst_case(p) + 1e-12


@given(st.lists(st.floats(0.1, 1e6), min_size=2, max_size=16), st.floats(0.1, 10))
@settings(max_examples=60, deadline=None)
def test_scale_invariant(loads, scale):
    assert pgp(loads) == pytest.approx(pgp(np.array(loads) * scale), rel=1e-9)


def _schedule(levels, p):
    return Schedule.from_partitions(
        n=sum(len(v) for lev in levels for _, v in lev),
        levels=levels,
        sync="barrier",
        algorithm="test",
        n_cores=p,
    )


def test_accumulated_pgp_balanced():
    cost = np.ones(4)
    levels = [
        [(0, np.array([0])), (1, np.array([1]))],
        [(0, np.array([2])), (1, np.array([3]))],
    ]
    assert accumulated_pgp(_schedule(levels, 2), cost) == 0.0


def test_accumulated_pgp_one_sided():
    cost = np.ones(4)
    levels = [
        [(0, np.array([0, 1]))],
        [(0, np.array([2, 3]))],
    ]
    assert accumulated_pgp(_schedule(levels, 2), cost) == pytest.approx(0.5)


def test_accumulated_pgp_mixed_levels():
    cost = np.array([1.0, 1.0, 2.0])
    levels = [
        [(0, np.array([0])), (1, np.array([1]))],
        [(0, np.array([2]))],
    ]
    # level 1: mean 1, max 1; level 2: mean 1, max 2 -> 1 - 2/3
    assert accumulated_pgp(_schedule(levels, 2), cost) == pytest.approx(1 - 2 / 3)


def test_accumulated_pgp_dynamic_partitions_balance():
    cost = np.ones(4)
    levels = [[(-1, np.array([i])) for i in range(4)]]
    s = Schedule.from_partitions(n=4, levels=levels, sync="barrier", algorithm="t", n_cores=2)
    assert accumulated_pgp(s, cost) == 0.0  # greedy binding balances 4 units on 2 cores
