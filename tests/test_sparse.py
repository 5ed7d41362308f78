import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growgcn import DataError, SparseMatrix, build_adjacency, normalized_laplacian

from conftest import random_graph


def dense_from_edges(edges, n):
    """Oracle densifier: no CSR, no scipy."""
    a = np.zeros((n, n))
    for i, j in edges:
        if i != j:
            a[i, j] = a[j, i] = 1.0
    return a


class TestSparseMatrix:
    def test_valid_construction(self):
        m = SparseMatrix(2, 3, [0, 2, 3], [0, 2, 1], [1.0, 2.0, 3.0])
        assert m.nnz == 3
        assert m.to_dense().tolist() == [[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]]

    def test_rejects_bad_offsets(self):
        with pytest.raises(ValueError):
            SparseMatrix(2, 2, [0, 2], [0, 1], [1.0, 1.0])
        with pytest.raises(ValueError):
            SparseMatrix(2, 2, [0, 2, 1], [0, 1], [1.0, 1.0])
        with pytest.raises(ValueError):
            SparseMatrix(2, 2, [1, 1, 2], [0], [1.0])

    def test_rejects_unsorted_columns(self):
        with pytest.raises(ValueError):
            SparseMatrix(1, 3, [0, 2], [2, 0], [1.0, 1.0])
        # duplicate column in one row is also not strictly increasing
        with pytest.raises(ValueError):
            SparseMatrix(1, 3, [0, 2], [1, 1], [1.0, 1.0])

    def test_rejects_out_of_range_column(self):
        with pytest.raises(ValueError):
            SparseMatrix(1, 2, [0, 1], [2], [1.0])

    def test_rejects_explicit_zero(self):
        with pytest.raises(ValueError):
            SparseMatrix(1, 2, [0, 1], [0], [0.0])

    def test_arrays_are_readonly(self):
        m = SparseMatrix(1, 2, [0, 1], [0], [1.0])
        with pytest.raises(ValueError):
            m.values[0] = 5.0

    def test_scipy_roundtrip_matches_oracle(self):
        rng = np.random.default_rng(4)
        adj = random_graph(rng, 9)
        assert np.array_equal(adj.to_dense(), adj.to_scipy().toarray())
        back = SparseMatrix.from_scipy(adj.to_scipy())
        assert np.array_equal(back.to_dense(), adj.to_dense())

    def test_submatrix_matches_oracle_and_caches_nothing(self):
        rng = np.random.default_rng(5)
        L = normalized_laplacian(random_graph(rng, 9))
        rows, cols = np.array([1, 4, 5]), np.array([0, 1, 3, 4, 5, 6, 8])
        dense = L.to_dense()
        assert np.array_equal(L.submatrix(rows).to_dense(), dense[rows])
        assert np.array_equal(L.submatrix(rows, cols).to_dense(), dense[np.ix_(rows, cols)])
        # slicing adds no scipy copy to the matrix's cache
        assert L._cache == {}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_symmetric_laplacian_is_its_own_transpose(self, dtype):
        rng = np.random.default_rng(6)
        L = normalized_laplacian(random_graph(rng, 12))
        t = L.transpose_scipy(dtype)
        # L's entries are s_i * s_j, so it equals its transpose exactly and keeps one copy
        assert t is L.to_scipy(dtype)
        assert t.dtype == dtype
        assert np.array_equal(t.toarray(), L.to_dense().T.astype(dtype))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cone_submatrix_keeps_a_real_transpose(self, dtype):
        rng = np.random.default_rng(7)
        L = normalized_laplacian(random_graph(rng, 12))
        sub = L.submatrix(np.array([1, 4, 5]), np.array([0, 1, 3, 4, 5, 6, 8]))
        t = sub.transpose_scipy(dtype)
        assert t is not sub.to_scipy(dtype) and t.shape == (7, 3)
        assert np.array_equal(t.toarray(), sub.to_dense().T.astype(dtype))
        # a square matrix that is not symmetric keeps its own transpose too
        asym = SparseMatrix(2, 2, [0, 1, 2], [1, 0], [1.0, 2.0])
        t = asym.transpose_scipy(dtype)
        assert t is not asym.to_scipy(dtype)
        assert np.array_equal(t.toarray(), asym.to_dense().T.astype(dtype))


class TestBuildAdjacency:
    def test_drops_self_loops_and_duplicates(self):
        adj = build_adjacency([(0, 1), (1, 0), (0, 1), (2, 2)], 3)
        assert adj.nnz == 2
        assert adj.to_dense().tolist() == [[0, 1, 0], [1, 0, 0], [0, 0, 0]]

    def test_out_of_range_edge(self):
        with pytest.raises(DataError, match=r"\(0, 3\) out of range"):
            build_adjacency([(0, 3)], 3)
        with pytest.raises(DataError):
            build_adjacency([(-1, 0)], 3)

    def test_empty_graph(self):
        adj = build_adjacency([], 4)
        assert adj.nnz == 0
        assert adj.shape == (4, 4)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        for n in (2, 5, 12):
            edges = [(int(rng.integers(n)), int(rng.integers(n))) for _ in range(3 * n)]
            assert np.array_equal(build_adjacency(edges, n).to_dense(),
                                  dense_from_edges(edges, n))

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60), m=st.integers(0, 400))
    @settings(max_examples=50, deadline=None)
    def test_matches_unique_oracle(self, seed, n, m):
        # few nodes for many keys: duplicates in both orientations, and self-loops
        rng = np.random.default_rng(seed)
        e = rng.integers(0, n, size=(m, 2))
        kept = e[e[:, 0] != e[:, 1]]
        both = np.concatenate([kept, kept[:, ::-1]])
        keys = np.unique(both[:, 0] * n + both[:, 1])
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // n, minlength=n), out=offsets[1:])
        for edges in (e, [tuple(p) for p in e.tolist()]):
            adj = build_adjacency(edges, n)
            for got, want in ((adj.row_offsets, offsets), (adj.col_indices, keys % n),
                              (adj.values, np.ones(keys.size))):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @given(st.permutations(list(range(6))))
    @settings(max_examples=25, deadline=None)
    def test_edge_order_irrelevant(self, order):
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]
        shuffled = [edges[i % len(edges)] for i in order]
        a = build_adjacency(edges, 5)
        b = build_adjacency(shuffled, 5)
        assert np.array_equal(a.row_offsets, b.row_offsets)
        assert np.array_equal(a.col_indices, b.col_indices)
        assert np.array_equal(a.values, b.values)


class TestNormalizedLaplacian:
    def test_path3_hand_values(self, path3):
        # degrees 1, 2, 1 -> diag 1/2, 1/3, 1/2; off-diag 1/sqrt(2*3)
        L = normalized_laplacian(path3).to_dense()
        s6 = 1.0 / np.sqrt(6.0)
        expected = np.array([[0.5, s6, 0.0], [s6, 1.0 / 3.0, s6], [0.0, s6, 0.5]])
        assert np.allclose(L, expected, atol=1e-15)

    def test_path2_hand_values(self):
        L = normalized_laplacian(build_adjacency([(0, 1)], 2)).to_dense()
        assert np.allclose(L, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_isolated_node_row(self):
        L = normalized_laplacian(build_adjacency([(0, 1)], 3)).to_dense()
        assert L[2, 2] == 1.0
        assert np.all(L[2, :2] == 0.0)

    def test_rejects_self_loops(self):
        m = SparseMatrix(2, 2, [0, 1, 2], [0, 1], [1.0, 1.0])
        with pytest.raises(ValueError, match="self-loops"):
            normalized_laplacian(m)

    def test_rejects_asymmetric(self):
        m = SparseMatrix(2, 2, [0, 1, 1], [1], [1.0])
        with pytest.raises(ValueError, match="symmetric"):
            normalized_laplacian(m)

    def test_invariants_random_graphs(self):
        rng = np.random.default_rng(123)
        for _ in range(40):
            n = int(rng.integers(2, 30))
            adj = random_graph(rng, n)
            L = normalized_laplacian(adj)
            D = L.to_dense()
            assert np.array_equal(D, D.T)
            deg = adj.row_sums()
            rows, cols = L.row_indices(), L.col_indices
            expected = 1.0 / np.sqrt((deg[rows] + 1) * (deg[cols] + 1))
            assert np.allclose(L.values, expected, atol=1e-12)
            assert L.values.min() > 0.0 and L.values.max() <= 1.0
            v = np.sqrt(deg + 1)
            assert np.allclose(D @ v, v, atol=1e-10)
            lam = np.linalg.eigvalsh(D)
            assert lam.min() > -1 - 1e-10
            assert lam.max() <= 1 + 1e-10


def laplacian_oracle(adj):
    """L in float64 from ``to_dense`` through plain loops: entry ij is s_i * (A + I)_ij * s_j."""
    a = adj.to_dense()
    n = a.shape[0]
    s = [1.0 / math.sqrt(sum(a[i]) + 1.0) for i in range(n)]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if a[i, j] or i == j:
                out[i, j] = s[i] * (a[i, j] + (i == j)) * s[j]
    return out


class TestLaplacianCache:
    def test_built_once_per_adjacency(self):
        adj = random_graph(np.random.default_rng(2), 10)
        L = normalized_laplacian(adj)
        m32 = L.to_scipy(np.float32)
        assert normalized_laplacian(adj) is L
        assert normalized_laplacian(adj).to_scipy(np.float32) is m32

    def test_cached_matrix_equals_loop_oracle(self):
        rng = np.random.default_rng(8)
        for n in (2, 7, 15):
            adj = random_graph(rng, n)
            normalized_laplacian(adj)
            assert np.array_equal(normalized_laplacian(adj).to_dense(), laplacian_oracle(adj))

    def test_dataset_with_new_splits_shares_it_new_adjacency_does_not(self, tiny_dataset):
        L = normalized_laplacian(tiny_dataset.adjacency)
        resplit = replace(tiny_dataset, splits=replace(tiny_dataset.splits, val=[2], test=[3]))
        assert normalized_laplacian(resplit.adjacency) is L
        a = tiny_dataset.adjacency
        other = replace(tiny_dataset, adjacency=SparseMatrix(a.n_rows, a.n_cols, a.row_offsets,
                                                             a.col_indices, a.values))
        L2 = normalized_laplacian(other.adjacency)
        assert L2 is not L and np.array_equal(L2.to_dense(), L.to_dense())

    @pytest.mark.parametrize("adj, match", [
        (SparseMatrix(2, 2, [0, 1, 1], [1], [1.0]), "symmetric"),
        (SparseMatrix(2, 2, [0, 1, 2], [0, 1], [1.0, 1.0]), "self-loops"),
    ])
    def test_failed_check_caches_nothing(self, adj, match):
        for _ in range(2):
            with pytest.raises(ValueError, match=match):
                normalized_laplacian(adj)
            assert not any(isinstance(v, SparseMatrix) for v in adj._cache.values())

    def test_pickle_carries_fields_not_cache(self):
        adj = random_graph(np.random.default_rng(5), 9)
        L = normalized_laplacian(adj)
        L.transpose_scipy(np.float32)
        for m in (adj, L):
            back = pickle.loads(pickle.dumps(m))
            assert back.shape == m.shape and back._cache == {}
            for name in ("row_offsets", "col_indices", "values"):
                got, want = getattr(back, name), getattr(m, name)
                assert got.dtype == want.dtype and np.array_equal(got, want)
                assert not got.flags.writeable
        assert np.array_equal(normalized_laplacian(pickle.loads(pickle.dumps(adj))).to_dense(),
                              L.to_dense())

