"""Structure-specific tests for each baseline inspector."""

import numpy as np
import pytest

from repro.graph import DAG, compute_wavefronts, dag_from_matrix_lower
from repro.kernels import KERNELS
from repro.passes.baselines import chunk_by_cost, chunk_by_count
from repro.schedulers import SCHEDULERS, acyclic_partition, build_etree, edge_cut, tree_levels
from repro.sparse import elimination_tree


class TestChunkHelpers:
    def test_chunk_by_cost_balances(self):
        verts = np.arange(10)
        cost = np.ones(20)
        chunks = chunk_by_cost(verts, cost, 5)
        assert [c.shape[0] for c in chunks] == [2, 2, 2, 2, 2]

    def test_chunk_by_cost_skewed(self):
        verts = np.arange(4)
        cost = np.array([100.0, 1, 1, 1])
        chunks = chunk_by_cost(verts, cost, 2)
        assert chunks[0].tolist() == [0]

    def test_chunk_by_cost_empty(self):
        assert chunk_by_cost(np.array([], dtype=np.int64), np.ones(0), 4) == []

    def test_chunk_by_count(self):
        chunks = chunk_by_count(np.arange(7), 3)
        assert sum(c.shape[0] for c in chunks) == 7
        assert len(chunks) == 3

    def test_chunk_by_count_fewer_vertices(self):
        chunks = chunk_by_count(np.arange(2), 5)
        assert len(chunks) == 2


class TestWavefrontAndMKL:
    def test_one_level_per_wavefront(self, mesh):
        g = dag_from_matrix_lower(mesh)
        w = compute_wavefronts(g)
        for name in ("wavefront", "mkl"):
            s = SCHEDULERS[name](g, np.ones(g.n), 4)
            assert s.n_levels == w.n_levels
            assert s.sync == "barrier"

    def test_mkl_splits_by_count_wavefront_by_cost(self, skewed):
        g = dag_from_matrix_lower(skewed)
        cost = KERNELS["spilu0"].cost(skewed)
        wf = SCHEDULERS["wavefront"](g, cost, 4)
        mkl = SCHEDULERS["mkl"](g, cost, 4)
        # cost-aware chunking yields a flatter load profile on skewed costs
        from repro.core import accumulated_pgp

        assert accumulated_pgp(wf, cost) <= accumulated_pgp(mkl, cost) + 1e-9


class TestSpMP:
    def test_p2p_sync(self, mesh):
        g = dag_from_matrix_lower(mesh)
        s = SCHEDULERS["spmp"](g, np.ones(g.n), 4)
        assert s.sync == "p2p"
        assert s.n_barriers() == 0

    def test_groups_follow_levels(self, mesh):
        g = dag_from_matrix_lower(mesh)
        s = SCHEDULERS["spmp"](g, np.ones(g.n), 4)
        w = compute_wavefronts(g)
        assert s.n_levels == w.n_levels


class TestLBC:
    def test_two_coarsened_wavefronts(self, mesh_nd):
        g = dag_from_matrix_lower(mesh_nd)
        s = SCHEDULERS["lbc"](g, np.ones(g.n), 4)
        assert s.n_levels <= 2  # the paper's defining LBC shape
        assert "cut_level" in s.meta

    def test_elimination_tree_structure(self, mesh):
        g = dag_from_matrix_lower(mesh)
        parent = elimination_tree(g.in_ptr, g.in_idx)
        n = g.n
        roots = np.nonzero(parent < 0)[0]
        assert roots.size >= 1
        ok = parent[parent >= 0] if False else None
        # parent(v) > v for all non-roots
        for v in range(n):
            if parent[v] >= 0:
                assert parent[v] > v

    def test_etree_descendant_property(self, all_small_matrices):
        """Every dependence edge u -> v has u a descendant of v in etree."""
        for name, a in all_small_matrices.items():
            g = dag_from_matrix_lower(a)
            parent = elimination_tree(g.in_ptr, g.in_idx)
            for u, v in list(g.iter_edges())[:400]:
                w = u
                seen = 0
                while w != -1 and w != v and seen <= g.n:
                    w = int(parent[w])
                    seen += 1
                assert w == v, (name, u, v)

    def test_tree_levels_leaf_up(self):
        parent = np.array([2, 2, 4, 4, -1])
        levels = tree_levels(parent)
        assert levels.tolist() == [0, 0, 1, 0, 2]

    def test_tree_levels_rejects_bad_parent(self):
        with pytest.raises(ValueError):
            tree_levels(np.array([1, 0]))

    def test_forest_components(self):
        """Below the cut, LBC packs whole subtrees, by smallest member."""
        # etree 0 -> 1 -> 4 <- 3 <- 2 (heights 0, 1, 0, 1, 2); cut 1 keeps
        # the leaves {0} and {2}; cut 2 the subtrees {0, 1} and {2, 3}
        g = DAG.from_edges(5, np.array([0, 1, 2, 3]), np.array([1, 4, 3, 4]))
        tree = build_etree(g, np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert tree.parent.tolist() == [1, 4, 3, 4, -1]
        assert tree.height.tolist() == [0, 1, 0, 1, 2]
        assert tree.subtree_cost.tolist() == [1.0, 3.0, 3.0, 7.0, 15.0]
        assert tree.subtree_min.tolist() == [0, 0, 2, 2, 0]
        s = SCHEDULERS["lbc"](g, np.ones(5), 2, epsilon=0.3)
        assert s.meta["cut_level"] == 2
        parts = np.split(s.order, s.part_ptr[1:-1])
        assert [part.tolist() for part in parts] == [[0, 1], [2, 3], [4]]


class TestDAGP:
    def test_partition_labels_valid(self, mesh):
        g = dag_from_matrix_lower(mesh)
        labels = acyclic_partition(g, np.ones(g.n), 16)
        assert labels.shape[0] == g.n
        assert labels.min() == 0
        assert labels.max() < 16

    def test_quotient_acyclic(self, all_small_matrices):
        from repro.graph import is_acyclic

        for name, a in all_small_matrices.items():
            g = dag_from_matrix_lower(a)
            labels = acyclic_partition(g, np.ones(g.n), 12)
            src, dst = g.edge_list()
            keep = labels[src] != labels[dst]
            q = DAG.from_edges(int(labels.max()) + 1, labels[src][keep], labels[dst][keep])
            assert is_acyclic(q), name

    def test_component_split_zero_cut(self, blocks):
        g = dag_from_matrix_lower(blocks)
        labels = acyclic_partition(g, np.ones(g.n), 12)
        assert edge_cut(g, labels) == 0  # blocks split along components

    def test_k_one_single_part(self, mesh):
        g = dag_from_matrix_lower(mesh)
        labels = acyclic_partition(g, np.ones(g.n), 1)
        assert np.all(labels == 0)

    def test_k_validation(self, mesh):
        g = dag_from_matrix_lower(mesh)
        with pytest.raises(ValueError):
            acyclic_partition(g, np.ones(g.n), 0)

    def test_meta_reports_cut(self, mesh):
        g = dag_from_matrix_lower(mesh)
        s = SCHEDULERS["dagp"](g, np.ones(g.n), 4, k=8)
        assert s.meta["k_requested"] == 8
        assert s.meta["edge_cut"] >= 0
        assert s.meta["n_parts"] <= 8


class TestSerial:
    def test_serial_shape(self, mesh):
        g = dag_from_matrix_lower(mesh)
        s = SCHEDULERS["serial"](g, np.ones(g.n))
        assert s.n_levels == 1
        assert s.n_partitions == 1
        assert s.n_cores == 1
