"""Unit tests for the CSR-backed DAG."""

import pickle

import numpy as np
import pytest

from repro.graph import DAG, gather_slices


class TestConstruction:
    def test_from_edges(self):
        g = DAG.from_edges(4, [0, 0, 1], [1, 2, 3])
        assert g.n == 4
        assert g.n_edges == 3
        assert g.children(0).tolist() == [1, 2]
        assert g.children(1).tolist() == [3]
        assert g.children(3).tolist() == []

    def test_from_edges_dedup(self):
        g = DAG.from_edges(3, [0, 0, 0], [1, 1, 2])
        assert g.n_edges == 2

    def test_from_edges_keep_duplicates_sorted(self):
        # dedup=False still requires caller discipline; sorted order kept
        g = DAG.from_edges(3, [0, 0], [1, 2], dedup=False)
        assert g.children(0).tolist() == [1, 2]

    def test_empty(self):
        g = DAG.empty(5)
        assert g.n == 5
        assert g.n_edges == 0
        assert g.sinks().tolist() == [0, 1, 2, 3, 4]
        assert g.sources().tolist() == [0, 1, 2, 3, 4]

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            DAG.from_edges(2, [0], [0])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            DAG.from_edges(2, [0], [5])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            DAG.from_edges(2, [0, 1], [1])

    def test_readonly(self):
        g = DAG.from_edges(2, [0], [1])
        with pytest.raises(ValueError):
            g.indices[0] = 0

    def test_view_of_writeable_memory_is_copied(self):
        # the in-edge cache is built from the arrays once; a write through
        # the caller's buffer must not reach the out-edges behind its back
        buf = np.array([1, 2, 2, 9])
        ptr = np.array([0, 2, 3, 3, 7])
        g = DAG(3, ptr[:4], buf[:3])
        assert g.in_ptr.tolist() == [0, 0, 1, 3]
        buf[1] = 1
        ptr[1] = 1
        assert g.indices.tolist() == [1, 2, 2]
        assert g.indptr.tolist() == [0, 2, 3, 3]
        assert g.parents(2).tolist() == [0, 1]
        assert buf.flags.writeable and ptr.flags.writeable

    def test_unpickled_dag_is_read_only(self):
        g = DAG.from_edges(3, [0, 0, 1], [1, 2, 2])
        assert g.parents(2).tolist() == [0, 1]
        h = pickle.loads(pickle.dumps(g))
        assert h == g
        assert not h.indptr.flags.writeable and not h.indices.flags.writeable

    def test_owned_and_read_only_arrays_are_not_copied(self):
        ptr, idx = np.array([0, 1, 1]), np.array([1])
        g = DAG(2, ptr, idx)
        assert np.shares_memory(g.indptr, ptr) and np.shares_memory(g.indices, idx)
        assert not idx.flags.writeable
        # a DAG sharing another's frozen arrays (out-edges only) copies nothing
        h = DAG(g.n, g.indptr, g.indices, check=False)
        assert np.shares_memory(h.indices, g.indices)


class TestAccessors:
    @pytest.fixture
    def g(self):
        #      0 -> 1 -> 3
        #      0 -> 2 -> 3 -> 4
        return DAG.from_edges(5, [0, 0, 1, 2, 3], [1, 2, 3, 3, 4])

    def test_degrees(self, g):
        assert g.out_degree().tolist() == [2, 1, 1, 1, 0]
        assert g.in_degree().tolist() == [0, 1, 1, 2, 1]

    def test_parents(self, g):
        assert g.parents(3).tolist() == [1, 2]
        assert g.parents(0).tolist() == []

    def test_sinks_sources(self, g):
        assert g.sinks().tolist() == [4]
        assert g.sources().tolist() == [0]

    def test_edge_list(self, g):
        src, dst = g.edge_list()
        assert list(zip(src.tolist(), dst.tolist())) == [
            (0, 1), (0, 2), (1, 3), (2, 3), (3, 4),
        ]

    def test_reverse(self, g):
        r = g.reverse()
        assert r.children(3).tolist() == [1, 2]
        assert r.reverse() == g

    def test_has_edge(self, g):
        assert g.has_edge(0, 2)
        assert not g.has_edge(2, 0)
        assert not g.has_edge(0, 4)

    def test_iter_edges(self, g):
        assert list(g.iter_edges()) == [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]

    def test_is_id_topological(self, g):
        assert g.is_id_topological()
        assert not DAG.from_edges(3, [2], [0]).is_id_topological()

    def test_equality(self, g):
        assert g == DAG.from_edges(5, [0, 0, 1, 2, 3], [1, 2, 3, 3, 4])
        assert g != DAG.from_edges(5, [0], [1])

    def test_not_hashable(self, g):
        with pytest.raises(TypeError):
            hash(g)


class TestGatherSlices:
    def test_gather(self):
        g = DAG.from_edges(4, [0, 0, 1, 2], [1, 2, 3, 3])
        out = gather_slices(g.indptr, g.indices, np.array([0, 2]))
        assert out.tolist() == [1, 2, 3]

    def test_empty_nodes(self):
        g = DAG.from_edges(2, [0], [1])
        assert gather_slices(g.indptr, g.indices, np.array([], dtype=np.int64)).size == 0

    def test_nodes_without_edges(self):
        g = DAG.from_edges(3, [0], [1])
        out = gather_slices(g.indptr, g.indices, np.array([1, 2]))
        assert out.size == 0

    def test_order_preserved(self):
        g = DAG.from_edges(4, [0, 0, 1], [2, 3, 2])
        out = gather_slices(g.indptr, g.indices, np.array([1, 0]))
        assert out.tolist() == [2, 2, 3]
