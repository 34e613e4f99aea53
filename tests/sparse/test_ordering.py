"""Tests for RCM / nested dissection orderings.

The orderings walk plain Python lists and ``permute_symmetric`` sorts once;
the loops they replaced are kept below as ``_reference`` oracles (a
dict-and-set BFS bisection, a per-vertex NumPy RCM queue and a per-row
sort), and the results must be equal (``==``, same dtypes), not merely
valid.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import (
    apply_ordering,
    banded_spd,
    bandwidth,
    csr_from_dense,
    kite_chain_spd,
    lower_triangle,
    natural,
    nested_dissection,
    poisson2d,
    poisson3d,
    power_law_spd,
    random_permutation,
    random_spd,
    rcm,
)
from repro.sparse.csr import CSRMatrix, INDEX_DTYPE, VALUE_DTYPE
from repro.sparse.ordering import _neighbours
from repro.suite.matrices import SUITE


def is_permutation(perm, n):
    return perm.shape[0] == n and np.array_equal(np.sort(perm), np.arange(n))


@pytest.mark.parametrize("method", ["rcm", "nd", "natural", "random"])
def test_returns_valid_permutation(method, all_small_matrices):
    for name, a in all_small_matrices.items():
        _, perm = apply_ordering(a, method)
        assert is_permutation(perm, a.n_rows), (method, name)


def test_apply_ordering_preserves_spd(mesh):
    ordered, _ = apply_ordering(mesh, "nd")
    assert ordered.nnz == mesh.nnz
    eig = np.linalg.eigvalsh(ordered.to_dense())
    assert eig.min() > 0


def test_rcm_reduces_bandwidth_of_shuffled_band(banded):
    shuffled = banded.permute_symmetric(
        np.random.default_rng(1).permutation(banded.n_rows)
    )
    ordered, _ = apply_ordering(shuffled, "rcm")
    assert bandwidth(ordered) < bandwidth(shuffled)


def test_rcm_deterministic(mesh):
    np.testing.assert_array_equal(rcm(mesh), rcm(mesh))


def test_nd_deterministic(mesh):
    np.testing.assert_array_equal(nested_dissection(mesh), nested_dissection(mesh))


def test_nd_separators_last_within_subproblem(mesh):
    """After ND the lower-triangular DAG becomes shallower (more parallel)
    than natural order for mesh problems."""
    from repro.graph import dag_from_matrix_lower
    from repro.metrics import average_parallelism

    natural_ap = average_parallelism(dag_from_matrix_lower(mesh))
    nd_mat, _ = apply_ordering(mesh, "nd")
    nd_ap = average_parallelism(dag_from_matrix_lower(nd_mat))
    assert nd_ap >= natural_ap


def test_nd_handles_disconnected(blocks):
    perm = nested_dissection(blocks)
    assert is_permutation(perm, blocks.n_rows)


def test_natural_is_identity(mesh):
    np.testing.assert_array_equal(natural(mesh), np.arange(mesh.n_rows))


def test_random_permutation_seeded(mesh):
    p1 = random_permutation(mesh, seed=4)
    p2 = random_permutation(mesh, seed=4)
    p3 = random_permutation(mesh, seed=5)
    np.testing.assert_array_equal(p1, p2)
    assert not np.array_equal(p1, p3)


def test_unknown_method_rejected(mesh):
    with pytest.raises(ValueError, match="unknown ordering"):
        apply_ordering(mesh, "metis")


def test_rcm_covers_multiple_components(blocks):
    perm = rcm(blocks)
    assert is_permutation(perm, blocks.n_rows)


@pytest.mark.parametrize("method", ["rcm", "nd", "natural", "random"])
def test_non_square_rejected_up_front(method):
    a = csr_from_dense(np.ones((3, 4)))
    with pytest.raises(ValueError, match="symmetric permutation requires a square matrix"):
        apply_ordering(a, method)


# ----------------------------------------------------------------------
# Reference oracles: the per-vertex loops the list-based code replaced.
# ----------------------------------------------------------------------
def _adjacency_reference(a):
    at = a.transpose()
    n = a.n_rows
    rows = np.concatenate(
        [
            np.repeat(np.arange(n, dtype=INDEX_DTYPE), a.row_nnz()),
            np.repeat(np.arange(n, dtype=INDEX_DTYPE), at.row_nnz()),
        ]
    )
    cols = np.concatenate([a.indices, at.indices])
    keep = rows != cols
    # unique (row, col) pairs in lexicographic order, as one int64 key each
    key = np.unique(rows[keep] * n + cols[keep])
    indptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
    np.cumsum(np.bincount(key // n, minlength=n), out=indptr[1:])
    return indptr, key % n


def _pseudo_peripheral_reference(indptr, indices, start):
    n = len(indptr) - 1
    u = start
    last_ecc = -1
    for _ in range(n):
        dist = [-1] * n
        dist[u] = 0
        q = deque([u])
        far = u
        while q:
            v = q.popleft()
            for w in indices[indptr[v] : indptr[v + 1]]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    far = w
                    q.append(w)
        ecc = dist[far]
        if ecc <= last_ecc:
            return u
        last_ecc = ecc
        u = far
    return u


def rcm_reference(a):
    n = a.n_rows
    indptr, indices = _adjacency_reference(a)
    degree = np.diff(indptr)
    visited = np.zeros(n, dtype=bool)
    order = []
    lists = indptr.tolist(), indices.tolist()
    for seed in range(n):
        if visited[seed]:
            continue
        root = _pseudo_peripheral_reference(*lists, seed)
        visited[root] = True
        q = deque([root])
        while q:
            v = q.popleft()
            order.append(v)
            nbrs = indices[indptr[v] : indptr[v + 1]]
            nbrs = nbrs[~visited[nbrs]]
            nbrs = nbrs[np.lexsort((nbrs, degree[nbrs]))]
            visited[nbrs] = True
            q.extend(int(x) for x in nbrs)
    return np.array(order[::-1], dtype=INDEX_DTYPE)


def _bfs_bisect_reference(indptr, indices, nodes):
    sub = set(nodes)

    def bfs(root):
        dist = {root: 0}
        q = deque([root])
        order = [root]
        while q:
            v = q.popleft()
            for w in indices[indptr[v] : indptr[v + 1]]:
                if w in sub and w not in dist:
                    dist[w] = dist[v] + 1
                    q.append(w)
                    order.append(w)
        return dist, order

    _, order = bfs(nodes[0])
    dist, _ = bfs(order[-1])
    half = (len(dist) + 1) // 2
    max_level = max(dist.values())
    counts = np.zeros(max_level + 1, dtype=np.int64)
    for d in dist.values():
        counts[d] += 1
    sep_level = min(int(np.searchsorted(np.cumsum(counts), half)), max_level)
    left = sorted(v for v, d in dist.items() if d < sep_level)
    sep = sorted(v for v, d in dist.items() if d == sep_level)
    # the far levels plus every vertex the sweeps never reached, in id order
    right = [v for v in nodes if dist.get(v, max_level + 1) > sep_level]
    return left, right, sep


def nested_dissection_reference(a, *, leaf_size=64):
    n = a.n_rows
    indptr, indices = (x.tolist() for x in _adjacency_reference(a))
    out = []
    stack = [("split", list(range(n)))]  # sorted vertex lists
    while stack:
        tag, payload = stack.pop()
        if tag == "emit":
            out.extend(payload)
            continue
        nodes = payload
        if len(nodes) <= leaf_size:
            out.extend(nodes)
            continue
        left, right, sep = _bfs_bisect_reference(indptr, indices, nodes)
        if not left or not right:
            out.extend(nodes)
            continue
        stack.append(("emit", sep))
        stack.append(("split", right))
        stack.append(("split", left))
    return np.array(out, dtype=INDEX_DTYPE)


def permute_symmetric_reference(a, perm):
    n = a.n_rows
    inv = np.empty(n, dtype=INDEX_DTYPE)
    inv[perm] = np.arange(n, dtype=INDEX_DTYPE)
    row_counts = np.diff(a.indptr)[perm]
    indptr_p = np.zeros(n + 1, dtype=INDEX_DTYPE)
    np.cumsum(row_counts, out=indptr_p[1:])
    indices_p = np.empty(a.nnz, dtype=INDEX_DTYPE)
    data_p = np.empty(a.nnz, dtype=VALUE_DTYPE)
    for new_i in range(n):
        old_i = perm[new_i]
        lo, hi = a.indptr[old_i], a.indptr[old_i + 1]
        cols = inv[a.indices[lo:hi]]
        order = np.argsort(cols, kind="stable")
        dst = slice(indptr_p[new_i], indptr_p[new_i + 1])
        indices_p[dst] = cols[order]
        data_p[dst] = a.data[lo:hi][order]
    return CSRMatrix(n, n, indptr_p, indices_p, data_p, check=False)


def _assert_identical(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def _assert_same_matrix(got, want):
    for name in ("indptr", "indices", "data"):
        _assert_identical(getattr(got, name), getattr(want, name))


def _assert_orderings_match_reference(a, leaf_size=64):
    for method, reference, kwargs in (
        ("nd", nested_dissection_reference, {"leaf_size": leaf_size}),
        ("rcm", rcm_reference, {}),
    ):
        want = reference(a, **kwargs)
        permuted, perm = apply_ordering(a, method, **kwargs)
        _assert_identical(perm, want)
        _assert_same_matrix(permuted, permute_symmetric_reference(a, want))


#: Suite matrices whose reference loops take over ~0.3 s here.
_SLOW = {
    "mesh2d-xl", "mesh3d-l", "mesh3d-xl", "band-narrow", "band-wide", "band-sparse",
    "band-dense", "rand-large", "chain-long", "ladder-l", "blocks-many", "blocks-few",
    "blocks-tiny", "arrow-many", "power-large",
}


@pytest.mark.parametrize(
    "spec",
    [pytest.param(s, id=s.name, marks=[pytest.mark.slow] if s.name in _SLOW else []) for s in SUITE],
)
def test_suite_orderings_match_reference(spec):
    _assert_orderings_match_reference(spec.build())


#: (family, low size, high size, build) as drawn by the cold-solve benchmark
COLD_SOLVE_FAMILIES = [
    ("poisson2d", 13, 28, lambda s: poisson2d(s, seed=1)),
    ("poisson3d", 6, 10, lambda s: poisson3d(s, seed=2)),
    ("random_spd", 250, 850, lambda s: random_spd(s, 6, seed=3)),
    ("power_law_spd", 250, 850, lambda s: power_law_spd(s, 5, seed=4)),
    ("banded_spd", 250, 850, lambda s: banded_spd(s, 8, fill=0.6, seed=5)),
    ("kite_chain_spd", 20, 60, lambda s: kite_chain_spd(s, 9, seed=6)),
]


@pytest.mark.parametrize(
    "build, size",
    [
        pytest.param(build, size, id=f"{family}-{size}")
        for family, lo, hi, build in COLD_SOLVE_FAMILIES
        for size in (lo, hi)
    ],
)
def test_cold_solve_orderings_match_reference(build, size):
    _assert_orderings_match_reference(build(size))


@st.composite
def patterns(draw, max_n=120):
    """Random square patterns: isolated vertices, several components, maybe asymmetric."""
    n = draw(st.integers(0, max_n))
    n_components = draw(st.integers(1, 6))
    n_edges = draw(st.integers(0, 3 * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dense = np.zeros((n, n))
    if n:
        component = rng.integers(n_components, size=n)
        rows, cols = rng.integers(n, size=(2, n_edges))
        inside = component[rows] == component[cols]
        dense[rows[inside], cols[inside]] = 1.0
        if draw(st.booleans()):
            dense += dense.T
        dense[np.diag_indices(n)] = rng.integers(2, size=n)
    return csr_from_dense(dense)


@settings(max_examples=60, deadline=None)
@given(a=patterns(), leaf_size=st.sampled_from([0, 1, 64]))
def test_random_patterns_match_reference(a, leaf_size):
    _assert_orderings_match_reference(a, leaf_size)


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("leaf_size", [0, 1, 64])
def test_tiny_matrices_match_reference(n, leaf_size):
    _assert_orderings_match_reference(csr_from_dense(np.eye(n)), leaf_size)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 30), seed=st.integers(0, 2**32 - 1))
def test_permute_symmetric_matches_per_row_sort_on_unchecked_input(n, seed):
    """Unsorted and duplicate columns keep their per-row stable-sort order."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 6, size=n)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    indices = rng.integers(max(n, 1), size=int(indptr[-1]))
    a = CSRMatrix(n, n, indptr, indices, rng.standard_normal(indices.shape[0]), check=False)
    perm = rng.permutation(n)
    _assert_same_matrix(a.permute_symmetric(perm), permute_symmetric_reference(a, perm))


# ----------------------------------------------------------------------
# The symmetrised neighbour lists every ordering starts from.
# ----------------------------------------------------------------------
def _neighbours_reference(a):
    """Oracle: per-vertex sets of the pattern of A + A^T, self-loops dropped."""
    sets = [set() for _ in range(a.n_rows)]
    for i in range(a.n_rows):
        for j in a.indices[a.indptr[i] : a.indptr[i + 1]].tolist():
            if i != j:
                sets[i].add(j)
                sets[j].add(i)
    return [sorted(s) for s in sets]


#: conftest fixtures, one per structure family
FAMILIES = ["mesh", "mesh3d_small", "kite", "blocks", "chain", "irregular", "skewed", "banded"]


@pytest.mark.parametrize("name", FAMILIES)
def test_neighbours_match_set_oracle(name, request):
    a = request.getfixturevalue(name)
    assert _neighbours(a) == _neighbours_reference(a)


@pytest.mark.parametrize("name", FAMILIES)
def test_neighbours_symmetrise_a_triangle(name, request):
    """The lower triangle alone yields the full symmetric matrix's lists."""
    a = request.getfixturevalue(name)
    assert _neighbours(lower_triangle(a)) == _neighbours(a)


@settings(max_examples=60, deadline=None)
@given(a=patterns())
def test_neighbours_of_random_patterns(a):
    assert _neighbours(a) == _neighbours_reference(a)


def test_neighbours_of_diagonal_and_empty_matrices():
    assert _neighbours(csr_from_dense(np.eye(3))) == [[], [], []]
    assert _neighbours(csr_from_dense(np.zeros((0, 0)))) == []
