"""CSR sparse matrices, adjacency construction, and graph normalization."""

import numpy as np
import scipy.sparse as sp

from .errors import DataError


class SparseMatrix:
    """Immutable CSR matrix with validated structure.

    Invariants checked at construction: offsets start at 0, are
    non-decreasing, and end at nnz; column indices are strictly increasing
    within each row and in range; no explicitly stored zeros.
    """

    __slots__ = ("n_rows", "n_cols", "row_offsets", "col_indices", "values", "_cache")

    def __init__(self, n_rows, n_cols, row_offsets, col_indices, values):
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.row_offsets = np.array(row_offsets, dtype=np.int64)
        self.col_indices = np.array(col_indices, dtype=np.int64)
        self.values = np.array(values, dtype=np.float64)
        self._validate()
        for a in (self.row_offsets, self.col_indices, self.values):
            a.setflags(write=False)
        self._cache = {}

    def __reduce__(self):
        """Pickle the five fields only: the copy validates again and starts with no cache."""
        return (SparseMatrix, (self.n_rows, self.n_cols, self.row_offsets, self.col_indices,
                               self.values))

    def _validate(self):
        if self.n_rows < 0 or self.n_cols < 0:
            raise ValueError("negative matrix dimensions")
        off, col, val = self.row_offsets, self.col_indices, self.values
        if off.ndim != 1 or off.shape[0] != self.n_rows + 1:
            raise ValueError(f"row_offsets must have length n_rows+1, got {off.shape}")
        if col.ndim != 1 or val.ndim != 1 or col.shape != val.shape:
            raise ValueError("col_indices and values must be 1-D and equal length")
        if off[0] != 0 or off[-1] != col.shape[0]:
            raise ValueError("row_offsets must start at 0 and end at nnz")
        if np.any(np.diff(off) < 0):
            raise ValueError("row_offsets must be non-decreasing")
        if col.size:
            if col.min() < 0 or col.max() >= self.n_cols:
                raise ValueError("column index out of range")
            # strictly increasing inside each row: diffs may only be <= 0 at row starts
            d = np.diff(col)
            breaks = np.where(d <= 0)[0] + 1
            if breaks.size and not np.all(np.isin(breaks, off)):
                raise ValueError("column indices must be strictly increasing within rows")
        if np.any(val == 0.0):
            raise ValueError("explicit zeros are not allowed")

    @property
    def nnz(self):
        return int(self.col_indices.shape[0])

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    def row_indices(self):
        """Row index of every stored entry, aligned with col_indices/values."""
        counts = np.diff(self.row_offsets)
        return np.repeat(np.arange(self.n_rows, dtype=np.int64), counts)

    def row_sums(self):
        out = np.zeros(self.n_rows, dtype=np.float64)
        np.add.at(out, self.row_indices(), self.values)
        return out

    def to_dense(self):
        """Densify through plain Python loops.

        Intentionally independent of the scipy-backed fast paths so tests can
        use it as an oracle.
        """
        out = np.zeros((self.n_rows, self.n_cols), dtype=np.float64)
        for i in range(self.n_rows):
            for k in range(int(self.row_offsets[i]), int(self.row_offsets[i + 1])):
                out[i, self.col_indices[k]] = self.values[k]
        return out

    def to_scipy(self, dtype=np.float64):
        key = ("csr", np.dtype(dtype).str)
        if key not in self._cache:
            m = sp.csr_matrix(
                (self.values.astype(dtype), self.col_indices, self.row_offsets),
                shape=(self.n_rows, self.n_cols),
            )
            self._cache[key] = m
        return self._cache[key]

    def transpose_scipy(self, dtype=np.float64):
        """The transpose as a scipy CSR matrix; ``to_scipy(dtype)`` itself when equal.

        A matrix that equals its transpose exactly (the normalized ``L``,
        whose entries are ``s_i * s_j``) keeps one copy, and a product with
        it rounds as a product with its transpose would.
        """
        key = ("csr_t", np.dtype(dtype).str)
        if key not in self._cache:
            m = self.to_scipy(dtype)
            t = m.T.tocsr()
            t.sort_indices()
            same = (np.array_equal(t.indptr, m.indptr) and np.array_equal(t.indices, m.indices)
                    and np.array_equal(t.data, m.data))
            self._cache[key] = m if same else t
        return self._cache[key]

    def submatrix(self, rows, cols=None):
        """The stored entries on sorted ``rows`` (and sorted ``cols``) as a new matrix.

        Each row keeps its entries in their stored order. So when ``cols``
        holds every column that ``rows`` store, a product with the submatrix
        rounds each of its rows exactly as the product with this matrix does.
        """
        m = sp.csr_matrix((self.values, self.col_indices, self.row_offsets),
                          shape=self.shape)[rows]
        return SparseMatrix.from_scipy(m if cols is None else m[:, cols])

    def is_symmetric(self):
        if self.n_rows != self.n_cols:
            return False
        m = self.to_scipy()
        d = (m - m.T).tocsr()
        d.eliminate_zeros()
        return d.nnz == 0

    def diagonal(self):
        return self.to_scipy().diagonal()

    @staticmethod
    def from_scipy(m):
        m = sp.csr_matrix(m)
        m.sum_duplicates()
        m.sort_indices()
        m.eliminate_zeros()
        return SparseMatrix(m.shape[0], m.shape[1], m.indptr, m.indices, m.data)


def build_adjacency(edges, n):
    """Build an undirected 0/1 adjacency from an edge list.

    Self-loops are dropped, duplicates collapse, both orientations are
    stored. ``edges`` is an m×2 integer array or a sequence of (i, j) pairs.
    """
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if e.size:
        bad = (e < 0) | (e >= n)
        if bad.any():
            i, j = e[np.where(bad.any(axis=1))[0][0]]
            raise DataError(f"edge ({i}, {j}) out of range for n={n}")
        e = e[e[:, 0] != e[:, 1]]
    if e.size == 0:
        return SparseMatrix(n, n, np.zeros(n + 1, dtype=np.int64), [], [])
    both = np.concatenate([e, e[:, ::-1]])
    keys = np.sort(both[:, 0] * np.int64(n) + both[:, 1])
    # np.unique's set, without its hash path: a sorted key is new unless it equals the last
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    rows, cols = keys // n, keys % n
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=offsets[1:])
    return SparseMatrix(n, n, offsets, cols, np.ones(cols.shape[0]))


def normalized_laplacian(adjacency):
    """Symmetrically normalized propagation matrix with self-loops.

    L = D^{-1/2} (A + I) D^{-1/2} where D counts degrees of A + I, i.e.
    D_ii = deg(i) + 1. All entries land in (0, 1] and the spectrum lies in
    (-1, 1]. The immutable ``adjacency`` keeps L once its checks pass, so every
    later call returns the same matrix, with the scipy copies it has made.
    """
    if "laplacian" in adjacency._cache:
        return adjacency._cache["laplacian"]
    n = adjacency.n_rows
    if adjacency.n_cols != n:
        raise ValueError("adjacency must be square")
    if np.any(adjacency.diagonal() != 0):
        raise ValueError("adjacency must have no self-loops")
    if not adjacency.is_symmetric():
        raise ValueError("adjacency must be symmetric")
    deg = adjacency.row_sums()
    s = 1.0 / np.sqrt(deg + 1.0)
    aug = adjacency.to_scipy() + sp.identity(n, format="csr")
    lap = sp.diags(s) @ aug @ sp.diags(s)
    adjacency._cache["laplacian"] = SparseMatrix.from_scipy(lap)
    return adjacency._cache["laplacian"]
