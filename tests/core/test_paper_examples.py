"""Worked-example tests in the spirit of the paper's Figures 1-3.

The figures' full edge lists are not recoverable from the text, so these
tests use `paper_like_dag` (see conftest) — a 13-vertex DAG engineered to
exhibit the same phenomena the figures illustrate — and assert the
*described* behaviours: transitive edges removed, subtrees found and
grouped, wavefronts merged until balance breaks, fewer barriers than plain
wavefront scheduling.
"""

import numpy as np
import pytest

from repro.core import hdagg, lbp_coarsen, subtree_grouping
from repro.graph import (
    coarsen_dag,
    compute_wavefronts,
    transitive_reduction_two_hop,
)
from repro.schedulers import SCHEDULERS


def test_transitive_edges_removed(paper_like_dag):
    g = paper_like_dag
    r = transitive_reduction_two_hop(g)
    assert not r.has_edge(1, 3)  # via 2
    assert not r.has_edge(5, 8)  # via 7
    assert not r.has_edge(9, 12)  # via 11
    assert r.n_edges == g.n_edges - 3


def test_subtrees_found_after_reduction(paper_like_dag):
    """Vertices with a single outgoing edge chain into their sink's group —
    the {11, 12}-style groups of Figure 2(b)."""
    r = transitive_reduction_two_hop(paper_like_dag)
    grouping = subtree_grouping(r)
    sets = {frozenset(g.tolist()) for g in grouping.groups}
    assert frozenset({10}) in sets or any(10 in s and len(s) > 1 for s in sets)
    # 12's only parent 11 has out-degree 1 -> grouped, like the paper's {11, 12}
    assert any({11, 12} <= s for s in sets)
    # fewer groups than vertices: aggregation really happened
    assert grouping.n_groups < paper_like_dag.n


def test_hdagg_uses_fewer_barriers_than_wavefront(paper_like_dag):
    g = paper_like_dag
    cost = np.ones(g.n)
    waves = compute_wavefronts(g)
    s = hdagg(g, cost, 2, epsilon=0.6)
    s.validate(g)
    assert s.n_levels < waves.n_levels  # Figure 1(e): 3 barriers vs 5


def test_all_five_schedules_valid_on_example(paper_like_dag):
    """Figure 1: every algorithm produces a correct schedule for the DAG."""
    g = paper_like_dag
    cost = np.ones(g.n)
    for name in ("hdagg", "wavefront", "spmp", "lbc", "dagp", "mkl", "serial"):
        builder = SCHEDULERS[name]
        s = builder(g, cost, 2) if name != "serial" else builder(g, cost)
        s.validate(g)


def test_lbp_merge_then_cut(paper_like_dag):
    """The LBP walk merges early waves and cuts when balance breaks, like
    the highlighted path of Figure 3."""
    r = transitive_reduction_two_hop(paper_like_dag)
    grouping = subtree_grouping(r)
    g2 = coarsen_dag(r, grouping)
    cost = grouping.group_costs(np.ones(paper_like_dag.n))
    res = lbp_coarsen(g2, cost, p=2, epsilon=0.34)
    assert 1 <= len(res.coarsened) < res.waves.n_levels


def test_schedule_structure_matches_figure2d_style(paper_like_dag):
    """Coarsened wavefronts hold width-partitions that run one per core."""
    s = hdagg(paper_like_dag, np.ones(13), 2, epsilon=0.6)
    for lo, hi in zip(s.level_ptr[:-1], s.level_ptr[1:]):
        cores = [c for c in s.part_core[lo:hi].tolist() if c >= 0]
        assert len(cores) == len(set(cores))
        assert hi - lo <= 2 or s.fine_grained
