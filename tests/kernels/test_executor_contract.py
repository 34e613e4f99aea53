"""The executor contract: the whole order is checked once, then run in order.

Every kernel's ``execute_in_order`` checks its order with one vectorized
pass (:func:`repro.kernels.base.check_order`) before any arithmetic.  These
tests pin that contract against test-local copies of the per-row loops the
executors used to run, which checked each iteration's dependences just
before computing it and ran the former NumPy row bodies:

* on valid orders (random topological orders and the interleavings of real
  schedules) SpTRSV matches the sequential oracle; SpILU0 and Gauss-Seidel
  are bit-identical to the NumPy per-row loops; SpIC0 and complete Cholesky
  are bit-identical to a per-row loop whose sums run left to right in stored
  column order, and within ``rtol=1e-14`` of the NumPy body, whose BLAS dot
  may sum in another order;
* every valid order gives a factor ``==`` to the natural-order reference;
* on invalid orders every kernel raises exactly the message the per-row
  loop raised;
* on deep chains the SpTRSV executor is not slower than the per-row loop,
  and its reused solve takes at most 1.5x the former tuple loop;
* the SpTRSV executor's memoised level program: repeated calls on one
  matrix are ``==`` to the former scalar body that rebuilt everything per
  call (suite lower triangles; natural, HDagg and random topological
  orders), bit for bit under every width cut on long rows, diagonal-only
  rows, ``-0.0`` and inf/NaN right-hand sides; the order is still checked
  on every call, a matrix that is not solvable raises on every call, and a
  ``with_data`` or unpickled matrix gets its own program.
"""

import os
import pickle
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import KERNELS, KernelError, sptrsv_reference
from repro.kernels.base import check_order
from repro.kernels.cholesky import embed_in_fill_pattern
from repro.kernels import sptrsv as sptrsv_module
from repro.kernels.sptrsv import WIDE_LEVEL, LevelProgram, check_solvable, sptrsv_levelwise
from repro.runtime.executor import interleaved_order
from repro.schedulers import SCHEDULERS
from repro.sparse import (
    apply_ordering,
    banded_spd,
    kite_chain_spd,
    lower_triangle,
    poisson2d,
    poisson3d,
    power_law_spd,
    random_spd,
    spd_from_pattern,
    tridiagonal_spd,
)
from repro.sparse.csr import CSRMatrix, INDEX_DTYPE, VALUE_DTYPE, check_rhs, csr_from_coo
from repro.suite import SUITE


# ----------------------------------------------------------------------
# the former NumPy row bodies
# ----------------------------------------------------------------------
def numpy_dot(va, vb):
    """The former executors' dot product (may sum in any order)."""
    return float(va @ vb)


def left_to_right_dot(va, vb):
    """Dot product summed left to right, the executors' convention."""
    s = 0.0
    for x, y in zip(va.tolist(), vb.tolist()):
        s += x * y
    return s


def sparse_prefix_dot(cols_a, vals_a, cols_b, vals_b, bound, dot):
    """Dot product of two sparse rows over columns ``< bound`` (sorted inputs)."""
    ka = int(np.searchsorted(cols_a, bound))
    kb = int(np.searchsorted(cols_b, bound))
    ca, va = cols_a[:ka], vals_a[:ka]
    cb, vb = cols_b[:kb], vals_b[:kb]
    if ka == 0 or kb == 0:
        return 0.0
    pos = np.searchsorted(cb, ca)
    pos_c = np.minimum(pos, kb - 1)
    match = cb[pos_c] == ca
    if not match.any():
        return 0.0
    return dot(va[match], vb[pos_c[match]])


def factor_row(i, indptr, indices, a_data, l_data, dot):
    """Factor row ``i`` of the lower CSR in place (up-looking)."""
    lo, hi = int(indptr[i]), int(indptr[i + 1])
    cols_i = indices[lo:hi]
    if hi == lo or cols_i[-1] != i:
        raise KernelError(f"spic0: row {i} is missing its diagonal entry")
    for t in range(hi - lo - 1):
        j = int(cols_i[t])
        jlo, jhi = int(indptr[j]), int(indptr[j + 1])
        cols_j = indices[jlo:jhi]
        s = a_data[lo + t] - sparse_prefix_dot(
            cols_i, l_data[lo:hi], cols_j, l_data[jlo:jhi], j, dot
        )
        l_data[lo + t] = s / l_data[jhi - 1]
    off = l_data[lo : hi - 1]
    pivot = a_data[hi - 1] - dot(off, off)
    if pivot <= 0.0:
        raise KernelError(f"spic0: non-positive pivot {pivot!r} at row {i} (matrix not SPD enough)")
    l_data[hi - 1] = np.sqrt(pivot)


def eliminate_row(i, indptr, indices, data, diag_pos):
    """Apply all IKJ updates to row ``i`` of the in-place LU storage."""
    lo, hi = int(indptr[i]), int(indptr[i + 1])
    cols_i = indices[lo:hi]
    row_i = data[lo:hi]  # view: updates write through
    n_lower = int(np.searchsorted(cols_i, i))
    for t in range(n_lower):
        k = int(cols_i[t])
        dk = data[diag_pos[k]]
        if dk == 0.0:
            raise KernelError(f"spilu0: zero pivot at row {k}")
        lik = row_i[t] / dk
        row_i[t] = lik
        klo, khi = int(indptr[k]), int(indptr[k + 1])
        cols_k = indices[klo:khi]
        start = int(np.searchsorted(cols_k, k)) + 1  # strictly upper part of row k
        if start >= khi - klo:
            continue
        upper_cols = cols_k[start:]
        upper_vals = data[klo + start : khi]
        pos = np.searchsorted(cols_i, upper_cols)
        pos_c = np.minimum(pos, hi - lo - 1)
        match = cols_i[pos_c] == upper_cols
        if match.any():
            row_i[pos_c[match]] -= lik * upper_vals[match]


def diag_positions(a):
    """Flat index of each diagonal entry, one ``searchsorted`` per row."""
    diag_pos = np.empty(a.n_rows, dtype=INDEX_DTYPE)
    for i in range(a.n_rows):
        lo, hi = a.indptr[i], a.indptr[i + 1]
        k = np.searchsorted(a.indices[lo:hi], i)
        if k >= hi - lo or a.indices[lo + k] != i:
            raise KernelError(f"spilu0: row {i} is missing its diagonal entry")
        diag_pos[i] = lo + k
    return diag_pos


# ----------------------------------------------------------------------
# the per-row loops, checking each iteration just before running it
# ----------------------------------------------------------------------
def _permutation(name, order, n):
    order = np.asarray(order, dtype=INDEX_DTYPE)
    if order.shape[0] != n or np.any(np.sort(order) != np.arange(n)):
        raise KernelError(f"{name}: order must be a permutation of range(n)")
    return order


def per_row_sptrsv(a, order, b):
    check_solvable(a)
    n = a.n_rows
    b = np.asarray(b, dtype=VALUE_DTYPE)
    order = _permutation("sptrsv", order, n)
    done = np.zeros(n, dtype=bool)
    x = np.empty(n, dtype=VALUE_DTYPE)
    indptr, indices, data = a.indptr, a.indices, a.data
    for i in order:
        lo, hi = indptr[i], indptr[i + 1]
        cols = indices[lo : hi - 1]
        if not np.all(done[cols]):
            missing = cols[~done[cols]][:5].tolist()
            raise KernelError(
                f"sptrsv: iteration {int(i)} scheduled before its dependences {missing}"
            )
        x[i] = (b[i] - data[lo : hi - 1] @ x[cols]) / data[hi - 1]
        done[i] = True
    return x


def scalar_sptrsv(a, order, b=None):
    """The SpTRSV executor before its row program: check and flatten per call."""
    check_solvable(a)
    n = a.n_rows
    b = check_rhs(np.ones(n) if b is None else b, n)
    order = check_order(
        a, order, "sptrsv", "iteration {i} scheduled before its dependences {missing}"
    )
    indptr, indices, data = a.indptr.tolist(), a.indices.tolist(), a.data.tolist()
    rhs = b.tolist()
    x = [0.0] * n
    for i in order.tolist():
        lo, diag = indptr[i], indptr[i + 1] - 1
        s = 0.0
        for k in range(lo, diag):
            s += data[k] * x[indices[k]]
        x[i] = (rhs[i] - s) / data[diag]
    return np.array(x, dtype=VALUE_DTYPE)


def _per_row_factor(name, low, order, dot):
    order = _permutation(name, order, low.n_rows)
    done = np.zeros(low.n_rows, dtype=bool)
    l_data = np.zeros(low.nnz, dtype=VALUE_DTYPE)
    for i in order:
        lo, hi = low.indptr[i], low.indptr[i + 1]
        deps = low.indices[lo : hi - 1]
        if not np.all(done[deps]):
            missing = deps[~done[deps]][:5].tolist()
            raise KernelError(f"{name}: row {int(i)} factored before rows {missing}")
        factor_row(int(i), low.indptr, low.indices, low.data, l_data, dot)
        done[i] = True
    return low.with_data(l_data)


def _spic0_lower(a):
    low = lower_triangle(a)
    if not low.has_full_diagonal():
        raise KernelError("spic0: matrix must have a full diagonal")
    return low


def per_row_spic0(a, order, b=None, dot=left_to_right_dot):
    return _per_row_factor("spic0", _spic0_lower(a), order, dot)


def per_row_cholesky(a, order, b=None, dot=left_to_right_dot):
    return _per_row_factor("cholesky", embed_in_fill_pattern(a), order, dot)


def per_row_spilu0(a, order, b=None):
    order = _permutation("spilu0", order, a.n_rows)
    diag_pos = diag_positions(a)
    data = a.data.copy()
    done = np.zeros(a.n_rows, dtype=bool)
    for i in order:
        lo, hi = a.indptr[i], a.indptr[i + 1]
        cols = a.indices[lo:hi]
        deps = cols[cols < i]
        if not np.all(done[deps]):
            missing = deps[~done[deps]][:5].tolist()
            raise KernelError(f"spilu0: row {int(i)} eliminated before rows {missing}")
        eliminate_row(int(i), a.indptr, a.indices, data, diag_pos)
        done[i] = True
    return a.with_data(data)


def _check_gauss_seidel_diagonal(a):
    if not a.is_square:
        raise KernelError("gauss-seidel: matrix must be square")
    if not a.has_full_diagonal():
        raise KernelError("gauss-seidel: missing diagonal entry")
    if np.any(a.diagonal() == 0.0):
        raise KernelError("gauss-seidel: zero on the diagonal")


def per_row_gauss_seidel(a, order, b):
    _check_gauss_seidel_diagonal(a)
    n = a.n_rows
    order = _permutation("gauss-seidel", order, n)
    b = np.asarray(b, dtype=VALUE_DTYPE)
    x_old = np.zeros(n, dtype=VALUE_DTYPE)
    x_new = np.empty(n, dtype=VALUE_DTYPE)
    done = np.zeros(n, dtype=bool)
    indptr, indices, data = a.indptr, a.indices, a.data
    for i in order:
        lo, hi = indptr[i], indptr[i + 1]
        cols = indices[lo:hi]
        vals = data[lo:hi]
        below = cols < i
        deps = cols[below]
        if not np.all(done[deps]):
            missing = deps[~done[deps]][:5].tolist()
            raise KernelError(f"gauss-seidel: row {int(i)} relaxed before rows {missing}")
        above = cols > i
        k = int(np.searchsorted(cols, i))
        s = b[i] - vals[below] @ x_new[deps] - vals[above] @ x_old[cols[above]]
        x_new[i] = s / vals[k]
        done[i] = True
    return x_new


#: kernel name -> (per-row loop, operand of the kernel given the SPD matrix)
PER_ROW = {
    "sptrsv": (per_row_sptrsv, lower_triangle),
    "spic0": (per_row_spic0, lambda a: a),
    "spilu0": (per_row_spilu0, lambda a: a),
    "gauss_seidel": (per_row_gauss_seidel, lambda a: a),
    "spchol": (per_row_cholesky, lambda a: a),
}
FACTOR_KERNELS = ("spic0", "spilu0", "spchol")


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
@st.composite
def lower_patterns(draw, max_n=30):
    """A random SPD matrix grown from a random strictly-lower pattern."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, 4 * max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if n == 1:
        return spd_from_pattern(1, np.empty(0, np.int64), np.empty(0, np.int64), seed=seed)
    rows = rng.integers(1, n, size=m)
    cols = (rng.random(m) * rows).astype(np.int64)
    pair = np.unique(np.stack([rows, cols], axis=1), axis=0).reshape(-1, 2)
    return spd_from_pattern(n, pair[:, 0], pair[:, 1], seed=seed)


def random_topological_order(g, rng):
    """A topological order of ``g`` that breaks every tie at random."""
    indeg = g.in_degree().copy()
    ready = [int(v) for v in np.flatnonzero(indeg == 0)]
    out = []
    while ready:
        v = ready.pop(int(rng.integers(len(ready))))
        out.append(v)
        for w in g.children(v).tolist():
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(int(w))
    assert len(out) == g.n
    return np.array(out, dtype=INDEX_DTYPE)


def valid_orders(kernel, m, seed):
    """Random topological orders plus interleavings of three schedules."""
    rng = np.random.default_rng(seed)
    g = kernel.dag(m)
    cost = np.asarray(kernel.cost(m), dtype=float)[: g.n]
    orders = [np.arange(m.n_rows, dtype=INDEX_DTYPE)]
    orders += [random_topological_order(g, rng) for _ in range(2)]
    for algo in ("hdagg", "spmp", "wavefront"):
        schedule = SCHEDULERS[algo](g, cost, 3)
        orders.append(interleaved_order(schedule, seed=seed))
    return orders


def invalid_orders(kernel, m, seed):
    """Random permutations, near-valid orders and non-permutations."""
    rng = np.random.default_rng(seed)
    n = m.n_rows
    orders = [rng.permutation(n) for _ in range(3)]
    orders.append(np.arange(n)[::-1].copy())
    topo = random_topological_order(kernel.dag(m), rng)
    for _ in range(2):
        swapped = topo.copy()
        i, j = rng.integers(n, size=2)
        swapped[[i, j]] = swapped[[j, i]]
        orders.append(swapped)
    orders.append(np.zeros(n, dtype=INDEX_DTYPE))  # repeats a row
    orders.append(np.arange(n + 1))  # one row too many
    return orders


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except KernelError as exc:
        return "raised", str(exc)


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------
@given(lower_patterns(), st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_sptrsv_matches_the_oracle_on_valid_orders(a, seed):
    kernel = KERNELS["sptrsv"]
    low = lower_triangle(a)
    b = np.random.default_rng(seed).standard_normal(low.n_rows)
    ref = sptrsv_reference(low, b)
    orders = valid_orders(kernel, low, seed)
    np.testing.assert_allclose(kernel.execute_in_order(low, orders[0], b), ref, rtol=1e-12)
    for order in orders[1:]:
        np.testing.assert_allclose(kernel.execute_in_order(low, order, b), ref, rtol=1e-10)


@pytest.mark.parametrize("name", ["spic0", "spilu0", "gauss_seidel", "spchol"])
@given(a=lower_patterns(), seed=st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_results_bit_identical_to_the_per_row_loop(name, a, seed):
    kernel = KERNELS[name]
    per_row, operand = PER_ROW[name]
    m = operand(a)
    b = np.random.default_rng(seed).standard_normal(m.n_rows)
    for order in valid_orders(kernel, m, seed):
        got = kernel.execute_in_order(m, order, b)
        want = per_row(m, order, b)
        if name in FACTOR_KERNELS:
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            got, want = got.data, want.data
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name", ["spic0", "spchol"])
@given(a=lower_patterns(), seed=st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_cholesky_factors_within_rtol_of_the_numpy_body(name, a, seed):
    kernel = KERNELS[name]
    per_row, _ = PER_ROW[name]
    order = valid_orders(kernel, a, seed)[-1]
    got = kernel.execute_in_order(a, order)
    want = per_row(a, order, dot=numpy_dot)
    np.testing.assert_allclose(got.data, want.data, rtol=1e-14, atol=0)


@pytest.mark.parametrize("name", FACTOR_KERNELS)
@given(a=lower_patterns(), seed=st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_every_valid_order_gives_the_reference_factor(name, a, seed):
    kernel = KERNELS[name]
    ref = kernel.reference(a)
    for order in valid_orders(kernel, a, seed):
        assert np.array_equal(kernel.execute_in_order(a, order).data, ref.data)


#: the cold-solve families at their smallest and largest benchmark size
COLD_SOLVE = [
    ("poisson2d", lambda size, seed: poisson2d(size, seed=seed), (13, 28)),
    ("poisson3d", lambda size, seed: poisson3d(size, seed=seed), (6, 10)),
    ("random_spd", lambda size, seed: random_spd(size, 6, seed=seed), (250, 850)),
    ("power_law_spd", lambda size, seed: power_law_spd(size, 5, seed=seed), (250, 850)),
    ("banded_spd", lambda size, seed: banded_spd(size, 8, fill=0.6, seed=seed), (250, 850)),
    ("kite_chain_spd", lambda size, seed: kite_chain_spd(size, 9, seed=seed), (20, 60)),
]


@pytest.mark.parametrize(
    "make,size",
    [(make, size) for _, make, sizes in COLD_SOLVE for size in sizes],
    ids=[f"{family}-{size}" for family, _, sizes in COLD_SOLVE for size in sizes],
)
def test_cold_solve_families_match_the_numpy_bodies(make, size):
    a, _ = apply_ordering(make(size, 7), "nd")
    for name in ("spic0", "spilu0"):
        kernel = KERNELS[name]
        g = kernel.dag(a)
        schedule = SCHEDULERS["hdagg"](g, np.asarray(kernel.cost(a), dtype=float)[: g.n], 20)
        order = schedule.execution_order()
        got = kernel.execute_in_order(a, order)
        assert np.array_equal(got.data, kernel.reference(a).data)
        if name == "spilu0":
            assert np.array_equal(got.data, per_row_spilu0(a, order).data)
        else:
            assert np.array_equal(got.data, per_row_spic0(a, order).data)
            want = per_row_spic0(a, order, dot=numpy_dot)
            np.testing.assert_allclose(got.data, want.data, rtol=1e-14, atol=0)


@given(a=lower_patterns(), drop=st.lists(st.integers(0, 29), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_missing_diagonal_names_the_first_row_without_one(a, drop):
    rows = np.repeat(np.arange(a.n_rows), a.row_nnz())
    dropped = np.isin(rows, [i % a.n_rows for i in drop])
    keep = ~(dropped & (a.indices == rows))
    indptr = np.zeros(a.n_rows + 1, dtype=INDEX_DTYPE)
    np.cumsum(np.bincount(rows[keep], minlength=a.n_rows), out=indptr[1:])
    m = CSRMatrix(a.n_rows, a.n_cols, indptr, a.indices[keep], a.data[keep])
    with pytest.raises(KernelError) as want:
        diag_positions(m)
    with pytest.raises(KernelError) as got:
        KERNELS["spilu0"].reference(m)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name", sorted(PER_ROW))
@given(a=lower_patterns(), seed=st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_invalid_orders_raise_the_per_row_message(name, a, seed):
    kernel = KERNELS[name]
    per_row, operand = PER_ROW[name]
    m = operand(a)
    b = np.random.default_rng(seed).standard_normal(m.n_rows)
    for order in invalid_orders(kernel, m, seed):
        status, got = _outcome(kernel.execute_in_order, m, order, b)
        want_status, want = _outcome(per_row, m, order, b)
        assert status == want_status, (order, got, want)
        if status == "raised":
            assert got == want


def former_check_order(pattern, order, name, violation):
    """``check_order`` before its memo: the pattern's rows rebuilt per call."""
    n = pattern.n_rows
    order = np.asarray(order, dtype=INDEX_DTYPE)
    if order.shape[0] != n or np.any(np.sort(order) != np.arange(n)):
        raise KernelError(f"{name}: order must be a permutation of range(n)")
    pos = np.empty(n, dtype=INDEX_DTYPE)
    pos[order] = np.arange(n, dtype=INDEX_DTYPE)
    rows = np.repeat(np.arange(n, dtype=INDEX_DTYPE), pattern.row_nnz())
    cols = pattern.indices
    late = (cols < rows) & (pos[cols] > pos[rows])
    if late.any():
        i = int(order[pos[rows[late]].min()])
        missing = cols[late & (rows == i)][:5].tolist()
        raise KernelError(f"{name}: " + violation.format(i=i, missing=missing))
    return order


@given(a=lower_patterns(), seed=st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_memoised_check_order_keeps_every_outcome(a, seed):
    """Full patterns too: entries on and above the diagonal are no dependence."""
    kernel = KERNELS["spilu0"]
    good = np.arange(a.n_rows, dtype=INDEX_DTYPE)
    for round_ in range(2):
        for order in [good] + invalid_orders(kernel, a, seed + round_):
            args = (order, "k", "row {i} before {missing}")
            status, got = _outcome(check_order, a, *args)
            want_status, want = _outcome(former_check_order, a, *args)
            assert status == want_status, order
            assert np.array_equal(got, want) if status == "ok" else got == want
    memo = a._lower_pattern
    check_order(a, good, "k", "{i} {missing}")
    assert a._lower_pattern is memo


def test_violation_names_earliest_iteration_and_first_five_dependences():
    a = tridiagonal_spd(12, seed=0)
    low = lower_triangle(a)
    # rows 5 and 9 both run before row 4; row 5 comes first in the order
    order = [0, 1, 2, 3, 5, 9, 4, 6, 7, 8, 10, 11]
    with pytest.raises(KernelError) as exc:
        KERNELS["sptrsv"].execute_in_order(low, order)
    assert str(exc.value) == "sptrsv: iteration 5 scheduled before its dependences [4]"


def _best_of(fn, rounds=5):
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def tuple_row_program(a):
    """The former per-matrix SpTRSV row program: per-row ``(value, column)`` tuples."""
    last = a.indptr[1:] - 1
    off = np.ones(a.nnz, dtype=bool)
    off[last] = False
    pairs = tuple(zip(a.data[off].tolist(), a.indices[off].tolist()))
    ptr = (a.indptr - np.arange(a.n_rows + 1)).tolist()
    return [pairs[lo:hi] for lo, hi in zip(ptr, ptr[1:])], a.data[last].tolist()


def tuple_loop_sptrsv(a, program, order, b):
    """The former reused SpTRSV solve: both checks, then the order on the row program."""
    rows, diag = program
    n = a.n_rows
    b = check_rhs(b, n)
    order = check_order(
        a, order, "sptrsv", "iteration {i} scheduled before its dependences {missing}"
    )
    rhs = b.tolist()
    x = [0.0] * n
    for i in order.tolist():
        s = 0.0
        for v, j in rows[i]:
            s += v * x[j]
        x[i] = (rhs[i] - s) / diag[i]
    return np.array(x, dtype=VALUE_DTYPE)


@pytest.mark.parametrize(
    "make", [lambda: kite_chain_spd(60, 9, seed=3), lambda: tridiagonal_spd(2000, seed=3)],
    ids=["kite_chain_spd", "chain-2000"],
)
def test_deep_chain_not_slower_than_the_per_row_loop(make):
    low = lower_triangle(make())
    order = np.arange(low.n_rows, dtype=INDEX_DTYPE)
    b = np.random.default_rng(0).standard_normal(low.n_rows)
    kernel = KERNELS["sptrsv"]
    np.testing.assert_allclose(
        kernel.execute_in_order(low, order, b), per_row_sptrsv(low, order, b), rtol=1e-12
    )
    new = _best_of(lambda: kernel.execute_in_order(low, order, b))
    old = _best_of(lambda: per_row_sptrsv(low, order, b))
    assert new <= old, f"checked-once executor {new * 1e3:.2f} ms vs per-row {old * 1e3:.2f} ms"
    # the reused solve: a chain is all narrow levels, so one scalar block
    fresh = low.copy()
    program = tuple_row_program(fresh)
    for _ in range(2):
        got = kernel.execute_in_order(fresh, order, b)
    assert np.array_equal(got, tuple_loop_sptrsv(fresh, program, order, b))
    reused = _best_of(lambda: kernel.execute_in_order(fresh, order, b))
    loop = _best_of(lambda: tuple_loop_sptrsv(fresh, program, order, b))
    assert reused <= 1.5 * loop, (
        f"reused solve {reused * 1e3:.2f} ms vs the tuple loop {loop * 1e3:.2f} ms"
    )


# ----------------------------------------------------------------------
# the SpTRSV level program
# ----------------------------------------------------------------------
#: one or two small matrices per family in tier-1; every suite matrix with
#: ``REPRO_DIFF_FULL=1``
_SUBSET = ["mesh2d-s", "mesh3d-s", "band-dense", "rand-dense", "chain-pure", "blocks-few",
           "arrow-many", "power-hard", "kite-small"]
SUITE_MATRICES = [s.name for s in SUITE] if os.environ.get("REPRO_DIFF_FULL") else _SUBSET


def _suite_lower(name):
    spec = next(s for s in SUITE if s.name == name)
    return lower_triangle(apply_ordering(spec.build(), "nd")[0])


@pytest.mark.parametrize("name", SUITE_MATRICES)
def test_sptrsv_repeated_calls_equal_the_former_body(name):
    low = _suite_lower(name)
    kernel = KERNELS["sptrsv"]
    g = kernel.dag(low)
    schedule = SCHEDULERS["hdagg"](g, np.asarray(kernel.cost(low), dtype=float)[: g.n], 20)
    rng = np.random.default_rng(0)
    orders = {
        "natural": np.arange(low.n_rows, dtype=INDEX_DTYPE),
        "hdagg": schedule.execution_order(),
        "random": random_topological_order(g, rng),
    }
    for round_ in range(2):
        for label, order in orders.items():
            b = rng.standard_normal(low.n_rows)
            got = kernel.execute_in_order(low, order.copy(), b)
            assert np.array_equal(got, scalar_sptrsv(low, order, b)), (label, round_)


@given(a=lower_patterns(), seed=st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_sptrsv_checks_the_order_on_every_call(a, seed):
    kernel = KERNELS["sptrsv"]
    low = lower_triangle(a)
    b = np.random.default_rng(seed).standard_normal(low.n_rows)
    good = np.arange(low.n_rows, dtype=INDEX_DTYPE)
    want = scalar_sptrsv(low, good, b)
    assert np.array_equal(kernel.execute_in_order(low, good, b), want)
    for order in invalid_orders(kernel, low, seed):
        status, got = _outcome(kernel.execute_in_order, low, order, b)
        want_status, want_out = _outcome(scalar_sptrsv, low, order, b)
        assert status == want_status, (order, got, want_out)
        assert np.array_equal(got, want_out) if status == "ok" else got == want_out
    assert np.array_equal(kernel.execute_in_order(low, good, b), want)


@pytest.mark.parametrize(
    "indptr,indices,data,message",
    [
        ([0, 1, 3], [0, 0, 1], [2.0, 1.0, 0.0], "sptrsv: zero on the diagonal"),
        ([0, 2, 3], [0, 1, 1], [2.0, 1.0, 3.0], "sptrsv: matrix has entries above the diagonal"),
        ([0, 1, 2], [0, 0], [2.0, 1.0], "sptrsv: missing diagonal entry"),
        ([0, 1, 1], [0], [2.0], "sptrsv: missing diagonal entry"),
    ],
    ids=["zero-diagonal", "above-diagonal", "missing-diagonal", "empty-row"],
)
def test_unsolvable_matrix_raises_on_every_call(indptr, indices, data, message):
    m = CSRMatrix(2, 2, indptr, indices, data)
    for _ in range(3):
        with pytest.raises(KernelError) as exc:
            KERNELS["sptrsv"].execute_in_order(m, [0, 1], [1.0, 1.0])
        assert str(exc.value) == message


def test_with_data_gets_its_own_program():
    kernel = KERNELS["sptrsv"]
    low = lower_triangle(tridiagonal_spd(50, seed=1))
    order = np.arange(low.n_rows, dtype=INDEX_DTYPE)
    b = np.random.default_rng(1).standard_normal(low.n_rows)
    first = kernel.execute_in_order(low, order, b)
    scaled = low.with_data(low.data * 3.0)
    assert np.array_equal(kernel.execute_in_order(scaled, order, b), scalar_sptrsv(scaled, order, b))
    assert np.array_equal(kernel.execute_in_order(low, order, b), first)
    data = low.data.copy()
    data[low.indptr[8] - 1] = 0.0  # row 7's diagonal
    with pytest.raises(KernelError, match="zero on the diagonal"):
        kernel.execute_in_order(low.with_data(data), order, b)


# ----------------------------------------------------------------------
# the level program is bit-identical to the scalar body
# ----------------------------------------------------------------------
#: every level vectorized, a mix of both step kinds on small matrices, and
#: the executor's own width cut
CUTS = pytest.mark.parametrize("cut", [1, 3, WIDE_LEVEL], ids=["all-wide", "mixed", "cut"])


def _bits(x):
    return np.asarray(x, dtype=VALUE_DTYPE).view(np.int64)


def _solves(low, order, b, cut, times=3):
    """``times`` solves of ``low`` in ``order`` with the width cut at ``cut``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sptrsv_module, "WIDE_LEVEL", cut)
        return [KERNELS["sptrsv"].execute_in_order(low, order, b) for _ in range(times)]


def _assert_reuse_exact(low, b, cut, order=None):
    order = np.arange(low.n_rows, dtype=INDEX_DTYPE) if order is None else order
    want = _bits(scalar_sptrsv(low, order, b))
    for k, got in enumerate(_solves(low, order, b, cut)):
        assert np.array_equal(_bits(got), want), f"solve {k + 1}"
    assert isinstance(low._row_program, LevelProgram)


def _lower(n, rows, cols, seed, off_sign=None):
    """A solvable lower triangle on a strictly-lower pattern.

    Off-diagonal magnitudes span twelve decades, so a sum taken in another
    order changes the bits; ``off_sign`` fixes their sign.
    """
    rng = np.random.default_rng(seed)
    rows = np.concatenate([np.asarray(rows, dtype=INDEX_DTYPE), np.arange(n)])
    cols = np.concatenate([np.asarray(cols, dtype=INDEX_DTYPE), np.arange(n)])
    vals = rng.standard_normal(rows.shape[0]) * 10.0 ** rng.uniform(-6, 6, rows.shape[0])
    if off_sign is not None:
        vals = off_sign * np.abs(vals)
    vals[-n:] = 1.0 + rng.random(n)
    return csr_from_coo(n, n, rows, cols, vals)


def _fan_in(width, seed, off_sign=None):
    """Rows ``0..w-1`` hold only a diagonal; rows ``w..2w-1`` form one level and
    row ``w`` reads all of ``0..w-1``; row ``2w`` reads every earlier row alone."""
    rng = np.random.default_rng(seed)
    rows, cols = [width] * width, list(range(width))
    for i in range(width + 1, 2 * width):
        rows += [i] * 3
        cols += sorted(rng.choice(width, size=3, replace=False).tolist())
    rows += [2 * width] * (2 * width)
    cols += list(range(2 * width))
    return _lower(2 * width + 1, rows, cols, seed, off_sign)


@CUTS
def test_a_long_row_sums_in_stored_order(cut):
    # row 20 (20 entries) in a wide level and row 40 (40 entries) alone in
    # its level: add.reduce sums a one-column block pairwise
    low = _fan_in(20, seed=5)
    assert WIDE_LEVEL <= 20
    _assert_reuse_exact(low, np.random.default_rng(5).standard_normal(low.n_rows), cut)


@CUTS
def test_rows_holding_only_a_diagonal(cut):
    b = np.random.default_rng(2).standard_normal(40)
    _assert_reuse_exact(_lower(40, [], [], seed=1), b, cut)
    _assert_reuse_exact(_lower(40, [5, 9, 9, 30], [0, 2, 5, 9], seed=2), b, cut)


@CUTS
def test_negative_zero_rhs_over_all_zero_products(cut):
    # x[:20] is 0.0 and every later row reads it with a negative value, so
    # each product is -0.0: s = 0.0 + -0.0 is 0.0, and b[i] - s keeps -0.0
    low = _fan_in(20, seed=3, off_sign=-1.0)
    b = np.zeros(low.n_rows)
    b[20:] = -0.0
    assert np.signbit(scalar_sptrsv(low, np.arange(low.n_rows), b)[20:]).all()
    _assert_reuse_exact(low, b, cut)


@CUTS
@given(a=lower_patterns(), seed=st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_inf_and_nan_in_the_rhs(cut, a, seed):
    low = lower_triangle(a)
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(low.n_rows)
    b[rng.integers(low.n_rows, size=3)] = [np.inf, -np.inf, np.nan]
    _assert_reuse_exact(low, b, cut)


@CUTS
@given(a=lower_patterns(), seed=st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_three_solves_under_natural_hdagg_and_random_orders(cut, a, seed):
    kernel = KERNELS["sptrsv"]
    low = lower_triangle(a)
    rng = np.random.default_rng(seed)
    g = kernel.dag(low)
    orders = [
        np.arange(low.n_rows, dtype=INDEX_DTYPE),
        SCHEDULERS["hdagg"](g, np.asarray(kernel.cost(low), dtype=float)[: g.n], 3)
        .execution_order(),
        random_topological_order(g, rng),
    ]
    # each order once as the first solve, the build and a reuse
    for shift in range(3):
        m = low.copy()
        for k in range(3):
            order = orders[(shift + k) % 3]
            b = rng.standard_normal(low.n_rows)
            (got,) = _solves(m, order, b, cut, times=1)
            assert np.array_equal(_bits(got), _bits(scalar_sptrsv(m, order, b))), (shift, k)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sptrsv_module, "WIDE_LEVEL", cut)
        got = sptrsv_levelwise(low.copy(), b)
    assert np.array_equal(_bits(got), _bits(scalar_sptrsv(low, orders[0], b)))


def test_with_data_and_unpickled_copies_get_their_own_program():
    low = lower_triangle(poisson2d(12, seed=1))
    b = np.random.default_rng(1).standard_normal(low.n_rows)
    _assert_reuse_exact(low, b, WIDE_LEVEL)
    program = low._row_program
    for copy in (low.with_data(low.data * 3.0), pickle.loads(pickle.dumps(low))):
        assert copy._row_program is None
        _assert_reuse_exact(copy, b, WIDE_LEVEL)
        assert copy._row_program is not program
    assert low._row_program is program


def test_b_none_solves_with_ones():
    kernel = KERNELS["sptrsv"]
    low = lower_triangle(poisson2d(8, seed=2))
    order = np.arange(low.n_rows, dtype=INDEX_DTYPE)
    for _ in range(2):
        assert np.array_equal(kernel.execute_in_order(low, order), scalar_sptrsv(low, order))
