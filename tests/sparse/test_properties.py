"""Tests for structural matrix properties."""

import numpy as np
import pytest

from repro.sparse import (
    bandwidth,
    csr_from_dense,
    density,
    is_numerically_symmetric,
    is_structurally_symmetric,
    lower_triangle,
    profile,
)


def test_structural_symmetry():
    sym = csr_from_dense(np.array([[1.0, 2], [3, 4]]))
    assert is_structurally_symmetric(sym)
    asym = csr_from_dense(np.array([[1.0, 2], [0, 4]]))
    assert not is_structurally_symmetric(asym)


def test_structural_symmetry_requires_square():
    assert not is_structurally_symmetric(csr_from_dense(np.ones((2, 3))))


def test_numerical_symmetry():
    assert is_numerically_symmetric(csr_from_dense(np.array([[1.0, 2], [2, 4]])))
    assert not is_numerically_symmetric(csr_from_dense(np.array([[1.0, 2], [3, 4]])))


def test_numerical_symmetry_tolerance():
    a = csr_from_dense(np.array([[1.0, 2.0], [2.0 + 1e-15, 4.0]]))
    assert is_numerically_symmetric(a)


def test_bandwidth():
    assert bandwidth(csr_from_dense(np.eye(3))) == 0
    assert bandwidth(csr_from_dense(np.array([[1.0, 0, 1], [0, 1, 0], [0, 0, 1]]))) == 2


def test_bandwidth_empty():
    assert bandwidth(csr_from_dense(np.zeros((3, 3)))) == 0


def test_profile():
    a = csr_from_dense(np.array([[1.0, 0, 0], [1, 1, 0], [1, 0, 1]]))
    assert profile(a) == 1 + 2


def test_density():
    assert density(csr_from_dense(np.eye(4))) == 4 / 16
    assert density(csr_from_dense(np.zeros((0, 5)))) == 0.0


#: conftest fixtures, one per structure family
FAMILIES = ["mesh", "mesh3d_small", "kite", "blocks", "chain", "irregular", "skewed", "banded"]


@pytest.mark.parametrize("name", FAMILIES)
def test_bandwidth_matches_dense_oracle(name, request):
    a = request.getfixturevalue(name)
    i, j = np.nonzero(a.to_dense())
    assert bandwidth(a) == int(np.abs(i - j).max())


@pytest.mark.parametrize("name", FAMILIES)
def test_profile_matches_dense_oracle(name, request):
    """Per row, the distance from the leftmost entry to the diagonal (if left of it)."""
    a = request.getfixturevalue(name)
    dense = a.to_dense()
    want = sum(max(0, i - int(np.flatnonzero(row)[0])) for i, row in enumerate(dense) if row.any())
    assert profile(a) == want
    assert profile(lower_triangle(a)) == want
