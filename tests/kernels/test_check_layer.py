"""The factor defects, computed with one keyed lookup, equal the per-row loops.

``ic0_defect`` and ``ilu0_defect`` look the product's entries up for the
whole pattern at once, and ``split_lu`` builds ``L`` and ``U`` with masks.
The per-row versions they replaced are kept here as oracles; on every
family the cold-solve benchmark draws from, at the low and high end of its
size range, the results must be equal, not merely close.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.kernels import ic0_defect, ilu0_defect, spic0_reference, spilu0_reference, split_lu
from repro.sparse import (
    apply_ordering,
    banded_spd,
    csr_from_dense,
    kite_chain_spd,
    lower_triangle,
    poisson2d,
    poisson3d,
    power_law_spd,
    random_spd,
)

#: (family, low size, high size, build) as drawn by the cold-solve benchmark
FAMILIES = [
    ("poisson2d", 13, 28, lambda s: poisson2d(s, seed=1)),
    ("poisson3d", 6, 10, lambda s: poisson3d(s, seed=2)),
    ("random_spd", 250, 850, lambda s: random_spd(s, 6, seed=3)),
    ("power_law_spd", 250, 850, lambda s: power_law_spd(s, 5, seed=4)),
    ("banded_spd", 250, 850, lambda s: banded_spd(s, 8, fill=0.6, seed=5)),
    ("kite_chain_spd", 20, 60, lambda s: kite_chain_spd(s, 9, seed=6)),
]
CASES = [
    pytest.param((build, size), id=f"{family}-{size}")
    for family, lo, hi, build in FAMILIES
    for size in (lo, hi)
]


def _per_row_pattern_defect(a, prod):
    prod.sort_indices()
    worst = 0.0
    scale = float(np.abs(a.data).max()) or 1.0
    for i in range(a.n_rows):
        cols, vals = a.row(i)
        s, e = prod.indptr[i], prod.indptr[i + 1]
        prow, pval = prod.indices[s:e], prod.data[s:e]
        if prow.shape[0] == 0:
            got = np.zeros_like(vals)
        else:
            pos = np.clip(np.searchsorted(prow, cols), 0, prow.shape[0] - 1)
            got = np.where(prow[pos] == cols, pval[pos], 0.0)
        worst = max(worst, float(np.abs(got - vals).max(initial=0.0)))
    return worst / scale


def per_row_ic0_defect(a, factor):
    ls = factor.to_scipy()
    return _per_row_pattern_defect(lower_triangle(a), (ls @ ls.T).tocsr())


def per_row_split_lu(factor):
    n = factor.n_rows
    rows_l, cols_l, vals_l = [], [], []
    rows_u, cols_u, vals_u = [], [], []
    for i, cols, vals in factor.iter_rows():
        lower = cols < i
        rows_l.extend([i] * int(lower.sum()))
        cols_l.extend(cols[lower].tolist())
        vals_l.extend(vals[lower].tolist())
        upper = cols >= i
        rows_u.extend([i] * int(upper.sum()))
        cols_u.extend(cols[upper].tolist())
        vals_u.extend(vals[upper].tolist())
    rows_l.extend(range(n))
    cols_l.extend(range(n))
    vals_l.extend([1.0] * n)
    l = sp.csr_matrix((vals_l, (rows_l, cols_l)), shape=(n, n))
    u = sp.csr_matrix((vals_u, (rows_u, cols_u)), shape=(n, n))
    return l, u


def per_row_ilu0_defect(a, factor):
    l, u = per_row_split_lu(factor)
    return _per_row_pattern_defect(a, (l @ u).tocsr())


def _perturbed(factor, seed):
    """The factor with every value nudged, so the defect is far from zero."""
    rng = np.random.default_rng(seed)
    return factor.with_data(factor.data * (1.0 + 1e-3 * rng.standard_normal(factor.nnz)))


@pytest.fixture(scope="module", params=CASES)
def matrix(request):
    build, size = request.param
    return apply_ordering(build(size), "nd")[0]


def test_ic0_defect_equals_per_row(matrix):
    factor = spic0_reference(matrix)
    for f in (factor, _perturbed(factor, 0)):
        assert ic0_defect(matrix, f) == per_row_ic0_defect(matrix, f)


def test_ilu0_defect_equals_per_row(matrix):
    factor = spilu0_reference(matrix)
    for f in (factor, _perturbed(factor, 1)):
        assert ilu0_defect(matrix, f) == per_row_ilu0_defect(matrix, f)


def test_split_lu_equals_per_row(matrix):
    factor = spilu0_reference(matrix)
    for got, want in zip(split_lu(factor), per_row_split_lu(factor)):
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)


def test_defect_counts_unstored_product_entries_as_zero():
    """A diagonal factor's product stores none of the off-diagonal pattern."""
    a = poisson2d(4, seed=0)
    ic0 = csr_from_dense(np.diag(np.sqrt(a.diagonal())))
    ilu0 = csr_from_dense(np.diag(a.diagonal()))
    assert ic0_defect(a, ic0) == per_row_ic0_defect(a, ic0) > 0.0
    assert ilu0_defect(a, ilu0) == per_row_ilu0_defect(a, ilu0) > 0.0
