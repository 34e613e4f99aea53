"""Tests for the synthetic DAG generators + schedulers on pure DAG shapes."""

import numpy as np
import pytest

from repro.core import hdagg
from repro.graph import compute_wavefronts, is_acyclic
from repro.graph.generators import (
    chain_dag,
    fan_dag,
    layered_dag,
    random_forest,
    series_parallel_dag,
)
from repro.schedulers import SCHEDULERS

GENS = [
    ("layered", lambda: layered_dag(5, 6, seed=1)),
    ("forest", lambda: random_forest(40, n_roots=3, seed=2)),
    ("chain", lambda: chain_dag(20)),
    ("fan", lambda: fan_dag(15)),
    ("sp", lambda: series_parallel_dag(4, seed=3)),
]


@pytest.mark.parametrize("name,build", GENS, ids=[g[0] for g in GENS])
def test_generators_produce_valid_dags(name, build):
    g = build()
    assert is_acyclic(g)
    assert g.is_id_topological()
    assert build() == g  # deterministic


def test_layered_wavefronts_are_layers():
    g = layered_dag(6, 4, seed=5)
    w = compute_wavefronts(g)
    assert w.n_levels == 6
    assert all(s == 4 for s in w.sizes().tolist())


def test_layered_validation():
    with pytest.raises(ValueError):
        layered_dag(0, 3)


def test_forest_every_nonroot_has_one_out_edge():
    g = random_forest(30, n_roots=2, seed=1)
    deg = g.out_degree()
    assert np.all(deg[:-2] == 1) or int((deg == 0).sum()) >= 2
    assert int((deg == 0).sum()) >= 2


def test_forest_validation():
    with pytest.raises(ValueError):
        random_forest(3, n_roots=0)
    with pytest.raises(ValueError):
        random_forest(3, n_roots=4)


def test_chain_shape():
    g = chain_dag(10)
    w = compute_wavefronts(g)
    assert w.n_levels == 10
    with pytest.raises(ValueError):
        chain_dag(0)


def test_fan_shapes():
    g = fan_dag(8)
    assert g.n == 9
    assert g.in_degree()[-1] == 8
    flat = fan_dag(8, gather=False)
    assert flat.n_edges == 0
    with pytest.raises(ValueError):
        fan_dag(0)


def test_series_parallel_single_sink():
    g = series_parallel_dag(4, branching=3, seed=7)
    assert is_acyclic(g)
    assert g.sinks().shape[0] == 1
    with pytest.raises(ValueError):
        series_parallel_dag(-1)


@pytest.mark.parametrize("name,build", GENS, ids=[g[0] for g in GENS])
@pytest.mark.parametrize("algo", ["hdagg", "wavefront", "spmp", "lbc", "dagp", "coarsenk"])
def test_all_schedulers_on_all_shapes(name, build, algo):
    g = build()
    s = SCHEDULERS[algo](g, np.ones(g.n), 3)
    s.validate(g)


def test_hdagg_fan_balances():
    """A fan of equal vertices packs evenly over the cores."""
    g = fan_dag(30, gather=False)
    s = hdagg(g, np.ones(30), 3)
    from repro.core import accumulated_pgp

    assert s.n_levels == 1
    assert accumulated_pgp(s, np.ones(30)) == 0.0


def test_hdagg_chain_is_sequential_without_cap_effects():
    g = chain_dag(16)
    s = hdagg(g, np.ones(16), 2)
    s.validate(g)
    # a pure chain has no parallelism for anyone
    assert np.all(np.diff(s.level_ptr) == 1)
