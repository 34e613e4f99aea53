"""End-to-end tests for the HDagg inspector (Algorithm 1)."""

import dataclasses

import numpy as np
import pytest

from repro.core import DEFAULT_EPSILON, Schedule, expand_lbp_to_schedule, hdagg
from repro.core.incremental import inspect_with_artifacts
from repro.graph import dag_from_matrix_lower, verify_schedule_order
from repro.kernels import KERNELS
from repro.sparse import (
    apply_ordering,
    banded_spd,
    kite_chain_spd,
    lower_triangle,
    poisson2d,
    poisson3d,
    power_law_spd,
    random_spd,
)

from ..conftest import assert_valid_schedule


@pytest.mark.parametrize("p", [1, 2, 4, 8])
def test_valid_on_every_family(all_small_matrices, p):
    for name, a in all_small_matrices.items():
        g = dag_from_matrix_lower(a)
        cost = KERNELS["spilu0"].cost(a)
        s = hdagg(g, cost, p)
        s.validate(g)
        assert s.algorithm == "hdagg"
        assert verify_schedule_order(g, s.execution_order()), name


def test_numerics_all_kernels(mesh_nd, rng):
    b = rng.normal(size=mesh_nd.n_rows)
    for kname, kernel in KERNELS.items():
        operand = lower_triangle(mesh_nd) if kname == "sptrsv" else mesh_nd
        g = kernel.dag(operand)
        s = hdagg(g, kernel.cost(operand), 4)
        assert_valid_schedule(s, g, kernel, operand, b)


def test_width_bounded_by_p_when_packed(mesh_nd):
    g = dag_from_matrix_lower(mesh_nd)
    s = hdagg(g, np.ones(g.n), 3, epsilon=0.5)
    if not s.fine_grained:
        assert np.all(np.diff(s.level_ptr) <= 3)


def test_bins_sorted_smallest_id_first(mesh_nd):
    g = dag_from_matrix_lower(mesh_nd)
    s = hdagg(g, np.ones(g.n), 4)
    for lo, hi in zip(s.part_ptr[:-1], s.part_ptr[1:]):
        assert np.all(np.diff(s.order[lo:hi]) > 0)


def test_meta_diagnostics(mesh_nd):
    g = dag_from_matrix_lower(mesh_nd)
    s = hdagg(g, np.ones(g.n), 4)
    for key in (
        "n_groups",
        "n_edges_original",
        "n_edges_reduced",
        "n_coarse_wavefronts",
        "accumulated_pgp",
        "epsilon",
    ):
        assert key in s.meta
    assert s.meta["epsilon"] == DEFAULT_EPSILON
    assert s.meta["n_edges_reduced"] <= s.meta["n_edges_original"]


def test_coarsening_reduces_levels(blocks):
    """On an embarrassingly parallel DAG, HDagg merges all wavefronts."""
    g = dag_from_matrix_lower(blocks)
    from repro.graph import compute_wavefronts

    s = hdagg(g, np.ones(g.n), 2)
    assert s.n_levels < compute_wavefronts(g).n_levels
    assert s.n_levels == 1


def test_ablation_switches(mesh_nd):
    g = dag_from_matrix_lower(mesh_nd)
    cost = np.ones(g.n)
    full = hdagg(g, cost, 4)
    no_step1 = hdagg(g, cost, 4, aggregate=False)
    no_tr = hdagg(g, cost, 4, transitive_reduce=False)
    no_pack = hdagg(g, cost, 4, bin_pack=False)
    for s in (full, no_step1, no_tr, no_pack):
        s.validate(g)
    assert no_step1.meta["n_groups"] == g.n
    assert no_pack.fine_grained


def test_step1_groups_on_kite(kite):
    g = dag_from_matrix_lower(kite)
    s = hdagg(g, np.ones(g.n), 2)
    s.validate(g)
    assert s.meta["n_groups"] < g.n  # cliques collapse into subtree groups


def test_epsilon_monotonicity(mesh_nd):
    """Looser epsilon never yields more coarsened wavefronts."""
    g = dag_from_matrix_lower(mesh_nd)
    cost = np.ones(g.n)
    tight = hdagg(g, cost, 4, epsilon=0.05)
    loose = hdagg(g, cost, 4, epsilon=0.9)
    assert loose.meta["n_coarse_wavefronts"] <= tight.meta["n_coarse_wavefronts"]


def test_p1_single_core(mesh_nd):
    g = dag_from_matrix_lower(mesh_nd)
    s = hdagg(g, np.ones(g.n), 1)
    s.validate(g)
    # one core: everything merges into one coarsened wavefront
    assert s.n_levels == 1


def test_empty_graph():
    from repro.graph import DAG

    s = hdagg(DAG.empty(0), np.zeros(0), 4)
    assert s.n == 0
    assert s.n_levels == 0


def test_cost_length_checked(mesh_nd):
    g = dag_from_matrix_lower(mesh_nd)
    with pytest.raises(ValueError):
        hdagg(g, np.ones(3), 4)


def test_deterministic(mesh_nd):
    g = dag_from_matrix_lower(mesh_nd)
    cost = KERNELS["spilu0"].cost(mesh_nd)
    s1 = hdagg(g, cost, 4)
    s2 = hdagg(g, cost, 4)
    assert s1.execution_order().tolist() == s2.execution_order().tolist()
    assert s1.core_assignment().tolist() == s2.core_assignment().tolist()


# ------------------------------------------------- flat expansion differential
def _expand_per_wavefront(lbp, grouping, n, p):
    """The expansion one coarsened wavefront at a time, from the component
    views: a bin's (or, fine-grained, a component's) members, smallest id
    first, per partition."""
    labels = grouping.labels
    levels = []
    for cw in lbp.coarsened:
        members = [np.flatnonzero(np.isin(labels, comp)) for comp in cw.components]
        if lbp.fine_grained:
            levels.append([(-1, m) for m in members])
            continue
        level = []
        for b in range(p):
            picked = [m for m, a in zip(members, cw.packing.assignment.tolist()) if a == b]
            if picked:
                level.append((b, np.sort(np.concatenate(picked))))
        levels.append(level)
    return Schedule.from_partitions(
        n, levels, sync="barrier", algorithm="hdagg", n_cores=p,
        fine_grained=lbp.fine_grained,
    )


def _expansion_cases():
    """(name, DAG, cost) on the golden matrices and the cold-solve families."""
    cases = {
        "golden-poisson2d-12": poisson2d(12, seed=0),
        "golden-banded-160": banded_spd(160, 6, seed=3),
        "golden-random-150": random_spd(150, 4.0, seed=7),
        "golden-powerlaw-150": power_law_spd(150, 5.0, seed=11),
        "cold-poisson2d": poisson2d(20, seed=1),
        "cold-poisson3d": poisson3d(7, seed=2),
        "cold-random": random_spd(400, 6, seed=3),
        "cold-power-law": power_law_spd(400, 5, seed=4),
        "cold-banded": banded_spd(400, 8, fill=0.6, seed=5),
        "cold-kite-chain": kite_chain_spd(30, 9, seed=6),
    }
    for name, a in cases.items():
        ordered, _ = apply_ordering(a, "nd")
        for kname in ("sptrsv", "spilu0"):
            kernel = KERNELS[kname]
            operand = lower_triangle(ordered) if kname == "sptrsv" else ordered
            yield f"{name}-{kname}", kernel.dag(operand), kernel.cost(operand)


@pytest.mark.parametrize("p", [8, 20])
def test_flat_expand_equals_per_wavefront_expansion(p):
    for name, g, cost in _expansion_cases():
        _, art = inspect_with_artifacts(g, cost, p)
        for fine in (False, True):
            lbp = dataclasses.replace(art.lbp, fine_grained=fine)
            flat = expand_lbp_to_schedule(lbp, art.grouping, g.n, p)
            ref = _expand_per_wavefront(lbp, art.grouping, g.n, p)
            for field in ("order", "part_ptr", "part_core", "level_ptr"):
                a, b = getattr(flat, field), getattr(ref, field)
                assert a.dtype == b.dtype and np.array_equal(a, b), (name, fine, field)
            assert flat.fine_grained == fine
