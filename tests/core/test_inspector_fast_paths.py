"""Differential tests: vectorized inspector stages vs their retained
reference loops.

Every fast path in the inspector (pointer-jumping subtree grouping,
monotone-pointer first-fit packing, the scalar LBP walk)
ships with the original loop implementation as an oracle.  These tests
drive both over seeded random DAGs and the structural edge cases named in
the design notes — empty DAG, single chain, star, tree-reduced chordal
factor — and demand *bit-identical* output: same group partitions, same
bin assignments and float loads, same coarsened wavefronts and packings.
LBP is bit-identical for integer costs; with non-integer costs its
component sums add up in union order, so only its floats may move (by an
ulp), never its structure.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import subtree_grouping, subtree_grouping_reference
from repro.core.backends.compiled import lbp_coarsen_compiled
from repro.core.backends.native import available as native_available
from repro.core.binpack import first_fit_pack, first_fit_pack_reference
from repro.core.lbp import lbp_coarsen, lbp_coarsen_reference
from repro.graph import DAG, dag_from_matrix_lower, transitive_reduction_two_hop
from repro.graph.coarsen import coarsen_dag
from repro.sparse import lower_triangle, random_spd, symbolic_cholesky


def _random_dag(rng, n, density):
    src, dst = [], []
    for j in range(1, n):
        for i in range(j):
            if rng.random() < density:
                src.append(i)
                dst.append(j)
    return DAG.from_edges(
        n, np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
    )


def _assert_grouping_equal(a, b):
    assert np.array_equal(a.labels, b.labels)
    assert a.n_groups == b.n_groups
    for ga, gb in zip(a.groups, b.groups):
        assert np.array_equal(ga, gb)


#: the flat arrays of an LBPResult, loads last
_FLAT = ("vertices", "comp_ptr", "comp_bin", "cw_ptr", "wave_ptr", "loads")


def _structure(r):
    """Merge flags, windows, components and bin assignments, with dtypes."""
    return (
        [(d.wave, d.merged) for d in r.decisions],
        r.fine_grained,
        [(getattr(r, f).dtype.str, getattr(r, f).tolist()) for f in _FLAT[:-1]],
    )


def _assert_lbp_equal(a, b):
    """Bit-identical: the structure, then every float by its bytes."""
    assert _structure(a) == _structure(b)
    assert [d.pgp.hex() for d in a.decisions] == [d.pgp.hex() for d in b.decisions]
    assert (a.loads.dtype, a.loads.shape) == (b.loads.dtype, b.loads.shape)
    assert a.loads.tobytes() == b.loads.tobytes()
    assert float(a.accumulated_pgp).hex() == float(b.accumulated_pgp).hex()


# ---------------------------------------------------------------- subtree


def test_subtree_grouping_random_dags():
    rng = np.random.default_rng(77)
    for _ in range(40):
        n = int(rng.integers(1, 50))
        g = transitive_reduction_two_hop(_random_dag(rng, n, float(rng.uniform(0.02, 0.4))))
        cost = rng.uniform(0.5, 4.0, size=n)
        _assert_grouping_equal(subtree_grouping(g), subtree_grouping_reference(g))
        for frac in (0.05, 0.25, 1.0):
            cap = frac * float(cost.sum()) / 4
            _assert_grouping_equal(
                subtree_grouping(g, cost, cap),
                subtree_grouping_reference(g, cost, cap),
            )


def test_subtree_grouping_empty_and_edgeless():
    g0 = DAG.from_edges(0, [], [])
    assert subtree_grouping(g0).n_groups == 0
    g5 = DAG.from_edges(5, [], [])
    _assert_grouping_equal(subtree_grouping(g5), subtree_grouping_reference(g5))


def test_subtree_grouping_single_chain():
    n = 12
    g = DAG.from_edges(n, list(range(n - 1)), list(range(1, n)))
    fast, ref = subtree_grouping(g), subtree_grouping_reference(g)
    _assert_grouping_equal(fast, ref)
    assert fast.n_groups == 1  # an uncapped chain collapses into one group
    cost = np.ones(n)
    capped = subtree_grouping(g, cost, 3.0)
    _assert_grouping_equal(capped, subtree_grouping_reference(g, cost, 3.0))
    assert capped.n_groups > 1  # the cap splits it


def test_subtree_grouping_star():
    n = 9  # many sources into one sink: parents have out-degree 1
    g = DAG.from_edges(n, list(range(n - 1)), [n - 1] * (n - 1))
    _assert_grouping_equal(subtree_grouping(g), subtree_grouping_reference(g))


def test_subtree_grouping_chordal_elimination_tree():
    a = random_spd(30, 3.0, seed=9)
    g = dag_from_matrix_lower(lower_triangle(symbolic_cholesky(a)))
    g_red = transitive_reduction_two_hop(g)
    cost = np.ones(g.n)
    _assert_grouping_equal(
        subtree_grouping(g_red), subtree_grouping_reference(g_red)
    )
    cap = 0.25 * g.n / 4
    _assert_grouping_equal(
        subtree_grouping(g_red, cost, cap),
        subtree_grouping_reference(g_red, cost, cap),
    )


def test_subtree_grouping_rejects_cycle():
    # a 2-cycle is not a DAG; the pointer-jumping path must refuse it
    # rather than loop forever or emit a partial grouping
    g = DAG(
        n=2,
        indptr=np.array([0, 1, 2], dtype=np.int64),
        indices=np.array([1, 0], dtype=np.int64),
    )
    with pytest.raises(ValueError):
        subtree_grouping(g)


# ---------------------------------------------------------------- binpack


def test_first_fit_random():
    rng = np.random.default_rng(5)
    for _ in range(200):
        k = int(rng.integers(0, 40))
        p = int(rng.integers(1, 9))
        costs = rng.uniform(0.0, 3.0, size=k)
        fast, ref = first_fit_pack(costs, p), first_fit_pack_reference(costs, p)
        assert np.array_equal(fast.assignment, ref.assignment)
        assert np.array_equal(fast.loads, ref.loads)  # bitwise float equality


def test_first_fit_edge_cases():
    for costs, p in [([], 1), ([], 5), ([1.0], 1), ([0.0, 0.0], 3), ([5.0, 0.1], 2)]:
        fast = first_fit_pack(costs, p)
        ref = first_fit_pack_reference(costs, p)
        assert np.array_equal(fast.assignment, ref.assignment)
        assert np.array_equal(fast.loads, ref.loads)


def test_items_per_bin_preserves_arrival_order():
    packing = first_fit_pack([1.0, 1.0, 1.0, 1.0, 1.0], 2)
    per_bin = packing.items_per_bin(2)
    flat = np.concatenate(per_bin)
    assert sorted(flat.tolist()) == [0, 1, 2, 3, 4]
    for b, items in enumerate(per_bin):
        assert np.array_equal(items, np.sort(items))  # arrival order == index order
        assert np.all(packing.assignment[items] == b)


# ---------------------------------------------------------------- lbp


def _random_g2s(epsilon):
    """Seeded ``G''``s of random DAGs, each with a float-cost generator."""
    rng = np.random.default_rng(hash(epsilon) % 2**31)
    for _ in range(25):
        n = int(rng.integers(1, 45))
        g = transitive_reduction_two_hop(_random_dag(rng, n, float(rng.uniform(0.05, 0.4))))
        yield rng, coarsen_dag(g, subtree_grouping(g))


@pytest.mark.parametrize("epsilon", [0.0, 0.1, 0.5])
def test_lbp_random_dags_bitwise(epsilon):
    """Integer costs: every component sum is exact in any order, so the
    scalar walk, the reference and the compiled tier agree bit for bit."""
    for rng, g2 in _random_g2s(epsilon):
        cost = rng.integers(0, 9, size=g2.n).astype(np.float64)
        for p in (1, 3, 6):
            fast = lbp_coarsen(g2, cost, p, epsilon, allow_fine_grained=True)
            ref = lbp_coarsen_reference(g2, cost, p, epsilon, allow_fine_grained=True)
            _assert_lbp_equal(fast, ref)
            if native_available():
                _assert_lbp_equal(lbp_coarsen_compiled(g2, cost, p, epsilon), fast)


@pytest.mark.parametrize("epsilon", [0.0, 0.1, 0.5])
def test_lbp_random_dags_float_costs(epsilon):
    """Non-integer costs: component sums add up in union order, not as
    ``np.sum`` over sorted members, so floats may move by an ulp; merge
    flags, windows, components and assignments may not.  The compiled tier
    accumulates the same way and stays bit-identical."""
    for rng, g2 in _random_g2s(epsilon):
        cost = rng.uniform(0.5, 4.0, size=g2.n)
        for p in (1, 3, 6):
            fast = lbp_coarsen(g2, cost, p, epsilon, allow_fine_grained=True)
            ref = lbp_coarsen_reference(g2, cost, p, epsilon, allow_fine_grained=True)
            assert _structure(fast) == _structure(ref)
            np.testing.assert_allclose(
                [d.pgp for d in fast.decisions], [d.pgp for d in ref.decisions],
                rtol=1e-12,
            )
            np.testing.assert_allclose(fast.loads, ref.loads, rtol=1e-12)
            np.testing.assert_allclose(
                fast.accumulated_pgp, ref.accumulated_pgp, rtol=1e-12
            )
            if native_available():
                _assert_lbp_equal(lbp_coarsen_compiled(g2, cost, p, epsilon), fast)


@st.composite
def integer_cost_dags(draw):
    """A random id-topological DAG with integer costs (total below 2^53)."""
    n = draw(st.integers(1, 40))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4 * n)
    )
    src = [min(a, b) for a, b in pairs if a != b]
    dst = [max(a, b) for a, b in pairs if a != b]
    g = DAG.from_edges(n, np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64))
    top = draw(st.sampled_from([1, 9, 2**40]))
    cost = draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
    return g, np.asarray(cost, dtype=np.float64)


@given(
    integer_cost_dags(),
    st.integers(1, 8),
    st.sampled_from([0.0, 0.05, 0.3, 1.0]),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_lbp_integer_costs_match_reference(case, p, epsilon, allow_fine):
    g, cost = case
    fast = lbp_coarsen(g, cost, p, epsilon, allow_fine_grained=allow_fine)
    ref = lbp_coarsen_reference(g, cost, p, epsilon, allow_fine_grained=allow_fine)
    _assert_lbp_equal(fast, ref)
    if native_available():
        compiled = lbp_coarsen_compiled(g, cost, p, epsilon, allow_fine_grained=allow_fine)
        _assert_lbp_equal(compiled, fast)


def test_lbp_single_wavefront_and_empty():
    g0 = DAG.from_edges(0, [], [])
    fast = lbp_coarsen(g0, np.empty(0), 2, 0.1)
    ref = lbp_coarsen_reference(g0, np.empty(0), 2, 0.1)
    _assert_lbp_equal(fast, ref)
    g1 = DAG.from_edges(4, [], [])  # one wavefront of independent vertices
    cost = np.array([1.0, 2.0, 3.0, 4.0])
    _assert_lbp_equal(
        lbp_coarsen(g1, cost, 2, 0.1), lbp_coarsen_reference(g1, cost, 2, 0.1)
    )
