"""The LBC and DAGP stages against the loops they replaced.

LBC searches its cut over etree subtree roots and labels only the chosen
cut; DAGP bisects on component labels and assigns the quotient over Python
lists.  These tests pin both against test-local copies of the former
bodies, which materialised every candidate cut's forest components on
NumPy scalars and split whole components as per-component arrays:

* on the suite matrices (a subset per family by default, all 34 with
  ``REPRO_DIFF_FULL=1``) and each of three kernels, the four
  :class:`Schedule` arrays and the meta are ``==``, and so are the DAGP
  part labels and the elimination tree parents;
* on random DAGs with integer costs, the same holds;
* with non-integer costs, subtree and ``np.bincount`` sums add the floats
  in another order than ``np.sum`` over sorted members: the component
  weights agree within ``rtol=1e-12``, and costs whose sums are exact
  (multiples of a power of two) still give ``==`` schedules.

The subset components the DAGP split runs on are pinned against the
former hook-and-jump code over a full-length local index map.
"""

import os
from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.binpack import first_fit_pack
from repro.core.pgp import pgp
from repro.core.schedule import Schedule, bucket_level, ptr_from_counts, stack_levels
from repro.graph import DAG, shiloach_vishkin
from repro.graph.connected_components import connected_components_of_subset
from repro.graph.dag import gather_slices
from repro.graph.wavefronts import level_of_vertices
from repro.schedulers import SCHEDULERS, acyclic_partition, build_etree
from repro.sparse import elimination_tree, elimination_tree_from_matrix
from repro.sparse.csr import INDEX_DTYPE
from repro.suite import SUITE
from repro.suite.harness import build_cell

P = 20
EPSILON = 0.3
K_PARTS = 1000


# ----------------------------------------------------------------------
# the former LBC body
# ----------------------------------------------------------------------
def etree_oracle(g: DAG) -> np.ndarray:
    """Liu's algorithm as the per-edge loop over NumPy scalars."""
    n = g.n
    parent = np.full(n, -1, dtype=INDEX_DTYPE)
    ancestor = np.full(n, -1, dtype=INDEX_DTYPE)
    in_ptr, in_idx = g.in_ptr, g.in_idx
    for i in range(n):
        for t in range(in_ptr[i], in_ptr[i + 1]):
            r = int(in_idx[t])
            while ancestor[r] != -1 and ancestor[r] != i:
                nxt = int(ancestor[r])
                ancestor[r] = i
                r = nxt
            if ancestor[r] == -1:
                ancestor[r] = i
                parent[r] = i
    return parent


def tree_levels_oracle(parent: np.ndarray) -> np.ndarray:
    level = np.zeros(parent.shape[0], dtype=INDEX_DTYPE)
    for v in range(parent.shape[0]):
        w = parent[v]
        if w >= 0 and level[w] < level[v] + 1:
            level[w] = level[v] + 1
    return level


def forest_components(parent: np.ndarray, mask: np.ndarray) -> List[np.ndarray]:
    """Subtrees of the forest induced on ``mask``, by smallest member id."""
    label = np.full(parent.shape[0], -1, dtype=INDEX_DTYPE)
    verts = np.nonzero(mask)[0]
    for v in verts[::-1]:
        w = parent[v]
        label[v] = label[w] if (w >= 0 and mask[w]) else v
    groups: dict = {}
    for v in verts:
        groups.setdefault(int(label[v]), []).append(int(v))
    return [
        np.array(sorted(members), dtype=INDEX_DTYPE)
        for _, members in sorted(groups.items(), key=lambda kv: min(kv[1]))
    ]


def lbc_oracle(g: DAG, cost: np.ndarray, p: int, epsilon: float) -> Schedule:
    """Every candidate cut's components materialised and packed."""
    parent = etree_oracle(g)
    height = tree_levels_oracle(parent)
    max_h = int(height.max())
    top = max_h + 1
    if top <= 48:
        candidates = list(range(top, 0, -1))
    else:
        candidates = sorted({int(c) for c in np.linspace(top, 1, 48).round()}, reverse=True)
    best = None
    best_pgp = np.inf
    for cut in candidates:
        mask = height < cut
        if not mask.any():
            continue
        comps = forest_components(parent, mask)
        packing = first_fit_pack([float(cost[c].sum()) for c in comps], p)
        score = pgp(packing.loads)
        if len(comps) >= p and score <= epsilon:
            best = (cut, comps, packing)
            break
        if score < best_pgp:
            best_pgp = score
            best = (cut, comps, packing)
    cut, comps, packing = best
    levels = [packing.partitions(comps, p)]
    tail_mask = height >= cut
    if tail_mask.any():
        tail_comps = forest_components(parent, tail_mask)
        tail_pack = first_fit_pack([float(cost[c].sum()) for c in tail_comps], p)
        levels.append(tail_pack.partitions(tail_comps, p))
    return Schedule(
        n=g.n,
        **stack_levels(level for level in levels if level[1].shape[0]),
        sync="barrier",
        algorithm="lbc",
        n_cores=p,
        meta={"cut_level": int(cut), "n_tree_levels": max_h + 1},
    )


# ----------------------------------------------------------------------
# the former DAGP body
# ----------------------------------------------------------------------
def components_oracle(g: DAG, vertices: np.ndarray) -> List[np.ndarray]:
    """Subset components by hook-and-jump over a full-length index map."""
    verts = np.sort(np.asarray(vertices, dtype=INDEX_DTYPE))
    m = verts.shape[0]
    if m == 0:
        return []
    local = np.full(g.n, -1, dtype=INDEX_DTYPE)
    local[verts] = np.arange(m, dtype=INDEX_DTYPE)
    starts = g.indptr[verts]
    counts = g.indptr[verts + 1] - starts
    total = int(counts.sum())
    if total:
        cum = np.cumsum(counts)
        within = np.arange(total, dtype=INDEX_DTYPE) - np.repeat(cum - counts, counts)
        dst_l = local[g.indices[np.repeat(starts, counts) + within]]
        src_l = np.repeat(np.arange(m, dtype=INDEX_DTYPE), counts)
        keep = dst_l >= 0
        src_l, dst_l = src_l[keep], dst_l[keep]
    else:
        src_l = dst_l = np.empty(0, dtype=INDEX_DTYPE)
    _, labels = np.unique(shiloach_vishkin(m, src_l, dst_l), return_inverse=True)
    order = np.argsort(labels, kind="stable")
    boundaries = np.nonzero(np.diff(labels[order]))[0] + 1
    return [np.ascontiguousarray(part) for part in np.split(verts[order], boundaries)]


def split_components_oracle(comps: List[np.ndarray], cost: np.ndarray):
    weights = np.array([float(cost[c].sum()) for c in comps])
    order = np.argsort(-weights, kind="stable")
    loads = [0.0, 0.0]
    sides: List[List[np.ndarray]] = [[], []]
    for k in order:
        side = 0 if loads[0] <= loads[1] else 1
        sides[side].append(comps[int(k)])
        loads[side] += weights[k]
    empty = np.empty(0, dtype=INDEX_DTYPE)
    left = np.sort(np.concatenate(sides[0])) if sides[0] else empty
    right = np.sort(np.concatenate(sides[1])) if sides[1] else empty
    return left, right


def partition_oracle(g: DAG, cost: np.ndarray, k: int) -> np.ndarray:
    cost = np.asarray(cost, dtype=np.float64)
    labels = np.zeros(g.n, dtype=INDEX_DTYPE)
    next_label = [0]

    def rec(verts: np.ndarray, parts: int) -> None:
        if parts <= 1 or verts.shape[0] <= 1:
            labels[verts] = next_label[0]
            next_label[0] += 1
            return
        comps = components_oracle(g, verts)
        if len(comps) > 1:
            left, right = split_components_oracle(comps, cost)
        else:
            c = cost[verts]
            total = float(c.sum())
            if total <= 0:
                mid = verts.shape[0] // 2
            else:
                mid = int(np.searchsorted(np.cumsum(c), total / 2.0)) + 1
                mid = min(max(mid, 1), verts.shape[0] - 1)
            left, right = verts[:mid], verts[mid:]
        if left.shape[0] == 0 or right.shape[0] == 0:
            labels[verts] = next_label[0]
            next_label[0] += 1
            return
        half = parts // 2
        rec(left, parts - half)
        rec(right, half)

    verts = np.arange(g.n, dtype=INDEX_DTYPE)
    rec(verts, min(k, g.n))
    first_member = np.full(next_label[0], g.n, dtype=INDEX_DTYPE)
    np.minimum.at(first_member, labels, verts)
    order = np.argsort(first_member, kind="stable")
    remap = np.empty(next_label[0], dtype=INDEX_DTYPE)
    remap[order] = np.arange(next_label[0], dtype=INDEX_DTYPE)
    return remap[labels]


def dagp_oracle(g: DAG, cost: np.ndarray, p: int, k: int) -> Schedule:
    """The oracle partition, then the quotient scheduled per level."""
    labels = partition_oracle(g, cost, k)
    n_parts = int(labels.max()) + 1
    src, dst = g.edge_list()
    keep = labels[src] != labels[dst]
    quotient = DAG.from_edges(n_parts, labels[src][keep], labels[dst][keep], dedup=True)
    qlevel = level_of_vertices(quotient)
    part_cost = np.zeros(n_parts, dtype=np.float64)
    np.add.at(part_cost, labels, cost)
    mflat = np.argsort(labels, kind="stable").astype(INDEX_DTYPE, copy=False)
    mptr = ptr_from_counts(np.bincount(labels, minlength=n_parts))
    part_core = np.full(n_parts, -1, dtype=INDEX_DTYPE)
    core_loads = np.zeros(p, dtype=np.float64)
    pred_of = np.full(n_parts, -1, dtype=INDEX_DTYPE)
    if np.any(keep):
        cut_src, cut_dst = labels[src][keep], labels[dst][keep]
        pair, counts = np.unique(
            np.stack([cut_dst, cut_src], axis=1), axis=0, return_counts=True
        )
        best_count = np.zeros(n_parts, dtype=np.int64)
        for (d_part, s_part), cnt in zip(pair.tolist(), counts.tolist()):
            if cnt > best_count[d_part]:
                best_count[d_part] = cnt
                pred_of[d_part] = s_part
    levels = []
    cores = np.arange(p, dtype=INDEX_DTYPE)
    for lev in range(int(qlevel.max()) + 1):
        parts_here = np.nonzero(qlevel == lev)[0]
        order = parts_here[np.argsort(-part_cost[parts_here], kind="stable")]
        for part_id in order:
            pred = pred_of[part_id]
            core = int(part_core[pred]) if pred >= 0 else int(np.argmin(core_loads))
            part_core[part_id] = core
            core_loads[core] += part_cost[part_id]
        verts = gather_slices(mptr, mflat, parts_here)
        levels.append(bucket_level(verts, part_core[labels[verts]], cores))
    return Schedule(
        n=g.n,
        **stack_levels(levels),
        sync="barrier",
        algorithm="dagp",
        n_cores=p,
        meta={
            "k_requested": k,
            "n_parts": n_parts,
            "edge_cut": int(np.count_nonzero(keep)),
            "n_quotient_levels": int(qlevel.max()) + 1,
        },
    )


# ----------------------------------------------------------------------
# comparison helpers
# ----------------------------------------------------------------------
def assert_same_schedule(got: Schedule, want: Schedule, label) -> None:
    for name in ("order", "part_ptr", "part_core", "level_ptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), (label, name)
    meta = {k: v for k, v in got.meta.items() if k != "stage_seconds"}
    assert meta == want.meta, label
    assert (got.n, got.sync, got.algorithm, got.n_cores) == (
        want.n, want.sync, want.algorithm, want.n_cores,
    ), label


#: one or two small matrices per family — the tier-1 grid
_SUBSET = [
    "mesh2d-s",
    "mesh3d-s",
    "band-dense",
    "rand-dense",
    "blocks-few",
    "arrow-many",
    "kite-small",
    "kite-wide",
]

MATRICES = [s.name for s in SUITE] if os.environ.get("REPRO_DIFF_FULL") else _SUBSET
KERNEL_NAMES = ("sptrsv", "spic0", "spilu0")


@pytest.fixture(scope="module")
def cells():
    """``(matrix, kernel) -> (dag, cost)``, built once per module."""
    out = {}
    for name in MATRICES:
        for kernel in KERNEL_NAMES:
            cell = build_cell(name, kernel=kernel, machine="intel20")
            g = cell.dag
            out[name, kernel] = (g, np.asarray(cell.cost, dtype=np.float64)[: g.n])
    return out


# ----------------------------------------------------------------------
# suite differential
# ----------------------------------------------------------------------
@pytest.mark.parametrize("matrix", MATRICES)
def test_etree_parents_match_the_loop(cells, matrix):
    g, cost = cells[matrix, "sptrsv"]
    want = etree_oracle(g)
    got = elimination_tree(g.in_ptr, g.in_idx)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(build_etree(g, cost).parent, want)
    lower = build_cell(matrix, kernel="sptrsv").operand
    assert np.array_equal(elimination_tree_from_matrix(lower), want)


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
@pytest.mark.parametrize("matrix", MATRICES)
def test_lbc_matches_the_oracle(cells, matrix, kernel):
    g, cost = cells[matrix, kernel]
    got = SCHEDULERS["lbc"](g, cost, P, epsilon=EPSILON)
    assert_same_schedule(got, lbc_oracle(g, cost, P, EPSILON), (matrix, kernel))
    assert set(got.meta["stage_seconds"]) == {"lbc-etree", "lbc-cut-pack"}


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
@pytest.mark.parametrize("matrix", MATRICES)
def test_dagp_matches_the_oracle(cells, matrix, kernel):
    g, cost = cells[matrix, kernel]
    labels = acyclic_partition(g, cost, K_PARTS)
    assert np.array_equal(labels, partition_oracle(g, cost, K_PARTS)), (matrix, kernel)
    got = SCHEDULERS["dagp"](g, cost, P)
    assert_same_schedule(got, dagp_oracle(g, cost, P, K_PARTS), (matrix, kernel))
    assert set(got.meta["stage_seconds"]) == {"dagp-partition", "dagp-quotient-assign"}


# ----------------------------------------------------------------------
# random DAGs
# ----------------------------------------------------------------------
@st.composite
def dags_with_costs(draw, integer=True):
    """A random id-topological DAG (possibly disconnected) and its costs."""
    n = draw(st.integers(min_value=1, max_value=60))
    density = draw(st.floats(min_value=0.0, max_value=0.25))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    src, dst = np.nonzero(np.triu(rng.random((n, n)) < density, k=1))
    g = DAG.from_edges(n, src, dst)
    if integer:
        cost = rng.integers(0, 9, size=n).astype(np.float64)
    else:
        cost = rng.random(n) * 10.0
    return g, cost, seed


@settings(max_examples=150, deadline=None)
@given(dags_with_costs(), st.integers(min_value=1, max_value=8),
       st.floats(min_value=0.0, max_value=0.6), st.integers(min_value=1, max_value=40))
def test_random_dags_integer_costs(case, p, epsilon, k):
    g, cost, seed = case
    assert_same_schedule(
        SCHEDULERS["lbc"](g, cost, p, epsilon=epsilon), lbc_oracle(g, cost, p, epsilon), seed
    )
    assert np.array_equal(acyclic_partition(g, cost, k), partition_oracle(g, cost, k)), seed
    assert_same_schedule(SCHEDULERS["dagp"](g, cost, p, k=k), dagp_oracle(g, cost, p, k), seed)


@settings(max_examples=100, deadline=None)
@given(dags_with_costs(), st.integers(min_value=1, max_value=200))
def test_subset_components_match_the_oracle(case, size):
    g, _, seed = case
    verts = np.random.default_rng(seed).permutation(g.n)[: min(size, g.n)]
    labels, sorted_verts = connected_components_of_subset(g, verts)
    want = components_oracle(g, verts)
    got = [sorted_verts[labels == c] for c in range(int(labels.max()) + 1)] if g.n else []
    assert [c.tolist() for c in got] == [c.tolist() for c in want], seed


def test_subset_components_both_paths(cells):
    """Subsets above and below the Python-list cut-off, on a suite DAG."""
    g, _ = cells[MATRICES[0], "sptrsv"]
    rng = np.random.default_rng(0)
    for size in (1, 7, 64, 65, 300, g.n):
        verts = rng.permutation(g.n)[:size]
        labels, sorted_verts = connected_components_of_subset(g, verts)
        got = [sorted_verts[labels == c] for c in range(int(labels.max()) + 1)]
        want = components_oracle(g, verts)
        assert [c.tolist() for c in got] == [c.tolist() for c in want], size


# ----------------------------------------------------------------------
# non-integer costs
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(dags_with_costs(integer=False))
def test_float_costs_weights_within_rtol(case):
    """Subtree sums and bincount sums reorder the float adds of the oracle's
    ``np.sum`` over sorted members: the weights move by at most a few ulp."""
    g, cost, seed = case
    tree = build_etree(g, cost)
    parent, height = tree.parent, tree.height
    for cut in range(1, int(height.max()) + 2):
        comps = forest_components(parent, height < cut)
        roots = [int(c[np.argmax(height[c])]) for c in comps]
        want = [float(cost[c].sum()) for c in comps]
        assert tree.subtree_min[roots].tolist() == [int(c[0]) for c in comps], seed
        np.testing.assert_allclose(tree.subtree_cost[roots], want, rtol=1e-12, atol=0)
    comps = components_oracle(g, np.arange(g.n))
    labels = np.empty(g.n, dtype=INDEX_DTYPE)
    for c, members in enumerate(comps):
        labels[members] = c
    np.testing.assert_allclose(
        np.bincount(labels, weights=cost, minlength=len(comps)),
        [float(cost[c].sum()) for c in comps],
        rtol=1e-12,
        atol=0,
    )
    for s in (SCHEDULERS["lbc"](g, cost, 4, epsilon=EPSILON), SCHEDULERS["dagp"](g, cost, 4, k=8)):
        s.validate(g)


@settings(max_examples=80, deadline=None)
@given(dags_with_costs())
def test_exactly_summed_float_costs_match(case):
    """Non-integer costs whose every partial sum is exact (multiples of
    1/64, small totals) add up the same in any order, so the schedules
    stay ``==``."""
    g, cost, seed = case
    cost = cost / 64.0
    assert_same_schedule(
        SCHEDULERS["lbc"](g, cost, 4, epsilon=EPSILON), lbc_oracle(g, cost, 4, EPSILON), seed
    )
    assert_same_schedule(SCHEDULERS["dagp"](g, cost, 4, k=8), dagp_oracle(g, cost, 4, 8), seed)


def test_kernel_costs_are_integers(cells):
    """The identity above covers the real inputs: every kernel cost model
    yields integer-valued costs."""
    for (matrix, kernel), (_, cost) in cells.items():
        assert np.array_equal(cost, np.round(cost)), (matrix, kernel)
