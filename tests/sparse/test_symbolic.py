"""Tests for symbolic Cholesky factorisation."""

import numpy as np
import pytest

from repro.sparse import csr_from_dense, lower_triangle
from repro.sparse.symbolic import elimination_tree_from_matrix, fill_in, symbolic_cholesky


def dense_chol_pattern(a):
    """Oracle: pattern of the dense Cholesky factor (no cancellation)."""
    dense = a.to_dense()
    n = dense.shape[0]
    # boolean gaussian elimination on the lower triangle
    pat = dense != 0
    for k in range(n):
        rows = np.nonzero(pat[k + 1 :, k])[0] + k + 1
        for i in rows:
            pat[i, rows[rows <= i]] = True
    return np.tril(pat)


@pytest.fixture
def arrow():
    # arrowhead reversed: first row/col dense -> massive fill
    dense = np.eye(5) * 4
    dense[0, :] = 1.0
    dense[:, 0] = 1.0
    dense[0, 0] = 8.0
    return csr_from_dense(dense)


def test_etree_matches_dag_builder(mesh):
    """The matrix-level etree equals the DAG-level etree used by LBC."""
    from repro.graph import dag_from_matrix_lower
    from repro.schedulers import build_etree

    g = dag_from_matrix_lower(mesh)
    np.testing.assert_array_equal(
        elimination_tree_from_matrix(mesh), build_etree(g, np.ones(g.n)).parent
    )


def test_symbolic_pattern_matches_dense_oracle(mesh3d_small, arrow):
    for a in (mesh3d_small, arrow):
        l = symbolic_cholesky(a)
        np.testing.assert_array_equal(l.to_dense() != 0, dense_chol_pattern(a))


def test_symbolic_matches_numeric_cholesky(mesh):
    """Numeric Cholesky nonzeros are a subset of (generically equal to)
    the symbolic pattern."""
    num = np.linalg.cholesky(mesh.to_dense())
    sym = symbolic_cholesky(mesh).to_dense() != 0
    assert np.all(sym[np.abs(num) > 1e-14])


def test_tridiagonal_has_no_fill(chain):
    assert fill_in(chain) == 0


def test_arrowhead_reversed_fills_completely(arrow):
    l = symbolic_cholesky(arrow)
    # dense first column -> fully dense factor
    assert l.nnz == 5 * 6 // 2


def test_mesh_fills(mesh):
    assert fill_in(mesh) > 0


def test_factor_includes_original_lower(mesh):
    l = symbolic_cholesky(mesh)
    low = lower_triangle(mesh)
    ld = l.to_dense() != 0
    assert np.all(ld[low.to_dense() != 0])


def test_factor_pattern_solve_has_tree_friendly_dag(mesh):
    """On a chordal pattern the etree drives LBC exactly (the class LBC is
    optimised for)."""
    from repro.graph import dag_from_matrix_lower
    from repro.schedulers import SCHEDULERS

    g = dag_from_matrix_lower(symbolic_cholesky(mesh))
    s = SCHEDULERS["lbc"](g, np.ones(g.n), 4)
    s.validate(g)


def test_requires_square():
    with pytest.raises(ValueError):
        symbolic_cholesky(csr_from_dense(np.ones((2, 3))))
    with pytest.raises(ValueError):
        elimination_tree_from_matrix(csr_from_dense(np.ones((2, 3))))


#: conftest fixtures, one per structure family
FAMILIES = ["mesh", "mesh3d_small", "kite", "blocks", "chain", "irregular", "skewed", "banded"]


@pytest.mark.parametrize("name", FAMILIES)
def test_pattern_matches_dense_oracle_on_every_family(name, request):
    a = request.getfixturevalue(name)
    l = symbolic_cholesky(a)
    want = dense_chol_pattern(a)
    np.testing.assert_array_equal(l.to_dense() != 0, want)
    assert fill_in(a) == int(want.sum()) - lower_triangle(a).nnz


@pytest.mark.parametrize("name", FAMILIES)
def test_etree_parent_is_first_subdiagonal_entry_of_factor(name, request):
    """parent(j) = min{i > j : L[i, j] != 0}, -1 for an empty column."""
    a = request.getfixturevalue(name)
    pat = np.tril(dense_chol_pattern(a), -1)
    want = [int(np.argmax(col)) if col.any() else -1 for col in pat.T]
    np.testing.assert_array_equal(elimination_tree_from_matrix(a), want)


@pytest.mark.parametrize("name", FAMILIES)
def test_etree_reads_only_the_lower_triangle(name, request):
    a = request.getfixturevalue(name)
    np.testing.assert_array_equal(
        elimination_tree_from_matrix(a), elimination_tree_from_matrix(lower_triangle(a))
    )
