"""Shared fixtures: small deterministic matrices and DAGs.

Everything here is sized for fast tests (n <= ~2500); the benchmarks own
the large inputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import DAG
from repro.sparse import (
    apply_ordering,
    banded_spd,
    block_diagonal_spd,
    csr_from_dense,
    kite_chain_spd,
    lower_triangle,
    poisson2d,
    poisson3d,
    power_law_spd,
    random_spd,
    tridiagonal_spd,
)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20220530)  # IPDPS 2022 conference date


@pytest.fixture
def repair_rung(monkeypatch):
    """The schedule cache's repair rung, on either tier.

    The cache repairs only where a repair pays (``repair_pays``: the numpy
    tier); tests of the rung itself also run it with the compiled stages
    loaded, so its splice stays checked against them.
    """
    from repro.core import incremental

    monkeypatch.setattr(incremental, "repair_pays", lambda: True)


@pytest.fixture(scope="session")
def tiny_spd():
    """3x3 dense SPD matrix with a hand-checkable Cholesky factor."""
    return csr_from_dense(np.array([[4.0, 1, 0], [1, 3, 1], [0, 1, 2]]))


@pytest.fixture(scope="session")
def mesh():
    """Small 2D Poisson matrix (natural ordering)."""
    return poisson2d(12, seed=7)


@pytest.fixture(scope="session")
def mesh_nd():
    """ND-reordered 2D Poisson matrix — the harness's canonical input."""
    ordered, _ = apply_ordering(poisson2d(16, seed=7), "nd")
    return ordered


@pytest.fixture(scope="session")
def mesh3d_small():
    return poisson3d(6, seed=9)


@pytest.fixture(scope="session")
def kite():
    """Chain of dense cliques: rich in transitive edges and subtrees."""
    return kite_chain_spd(6, 6, seed=3)


@pytest.fixture(scope="session")
def blocks():
    """Block-diagonal: embarrassingly parallel DAG."""
    return block_diagonal_spd(12, 8, seed=5)


@pytest.fixture(scope="session")
def chain():
    """Tridiagonal: the DAG is a single path."""
    return tridiagonal_spd(40, seed=2)


@pytest.fixture(scope="session")
def irregular():
    """Random symmetric pattern: a non-tree DAG (HDagg's target class)."""
    return random_spd(300, 6.0, seed=11)


@pytest.fixture(scope="session")
def skewed():
    """Power-law degrees: non-uniform iteration costs."""
    return power_law_spd(260, 5.0, seed=13)


@pytest.fixture(scope="session")
def banded():
    return banded_spd(200, 9, fill=0.8, seed=17)


@pytest.fixture(scope="session")
def all_small_matrices(mesh, mesh3d_small, kite, blocks, chain, irregular, skewed, banded):
    """Name -> matrix map covering every structure family."""
    return {
        "mesh": mesh,
        "mesh3d": mesh3d_small,
        "kite": kite,
        "blocks": blocks,
        "chain": chain,
        "irregular": irregular,
        "skewed": skewed,
        "banded": banded,
    }


@pytest.fixture(scope="session")
def diamond_dag():
    """0 -> {1, 2} -> 3 plus the transitive edge 0 -> 3."""
    return DAG.from_edges(4, [0, 0, 1, 2, 0], [1, 2, 3, 3, 3])


@pytest.fixture(scope="session")
def paper_like_dag():
    """A 13-vertex DAG in the spirit of the paper's Figure 2.

    Designed (not transcribed — the figure's full edge list is not in the
    text) so that after two-hop transitive reduction the subtree step finds
    multiple non-trivial groups, wavefront coarsening has >= 3 levels, and
    the LBP loop exercises both merge and cut branches at p = 2.
    """
    edges = [
        (0, 3), (1, 2), (2, 3), (0, 4), (2, 4),
        (3, 9), (4, 9), (1, 3),          # (1,3) is transitive via 2
        (5, 7), (6, 7), (7, 8), (5, 8),  # (5,8) is transitive via 7
        (8, 9), (8, 10),
        (9, 11), (10, 11), (11, 12), (9, 12),  # (9,12) transitive via 11
    ]
    src = [e[0] for e in edges]
    dst = [e[1] for e in edges]
    return DAG.from_edges(13, src, dst)


def assert_valid_schedule(schedule, g, kernel=None, operand=None, b=None):
    """Assert structural validity and (optionally) numeric correctness."""
    schedule.validate(g)
    if kernel is not None:
        ref = kernel.reference(operand, b)
        got = kernel.execute_in_order(operand, schedule.execution_order(), b)
        if isinstance(ref, np.ndarray):
            np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-12)
        else:
            np.testing.assert_allclose(got.data, ref.data, rtol=1e-10, atol=1e-12)


def partition_lists(schedule):
    """The schedule as levels of ``(core, vertices)`` pairs.

    The per-partition view tests read and edit; feed an edited copy back
    through ``Schedule.from_partitions``.
    """
    ptr, cores, lp = schedule.part_ptr, schedule.part_core.tolist(), schedule.level_ptr
    return [
        [(cores[j], schedule.order[ptr[j] : ptr[j + 1]].copy()) for j in range(lp[k], lp[k + 1])]
        for k in range(schedule.n_levels)
    ]


def assert_same_arrays(a, b):
    """Two schedules hold identical partition structure (values and dtypes)."""
    for name in ("order", "part_ptr", "part_core", "level_ptr"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        np.testing.assert_array_equal(x, y, err_msg=name)
