import csv
import filecmp
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growgcn import (
    GcnLayer,
    LayerStack,
    NumericalAbort,
    Tensor,
    build_adjacency,
    collapse_report,
    dirichlet_energy,
    distance_to_constant,
    export_embeddings,
    glorot_init,
    normalized_laplacian,
    sgc_propagate,
)

from conftest import random_graph


@st.composite
def matrices(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 4))
    rows = draw(st.lists(
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=m, max_size=m),
        min_size=n, max_size=n))
    return np.array(rows, dtype=np.float64)


class TestDistanceToConstant:
    def test_antisymmetric_rows_give_one(self):
        assert distance_to_constant([[1.0, 0.0], [-1.0, 0.0]]) == 1.0

    def test_constant_rows_give_zero(self):
        assert distance_to_constant(np.tile([2.0, 3.0], (5, 1))) == 0.0

    def test_zero_matrix_gives_zero(self):
        assert distance_to_constant(np.zeros((4, 3))) == 0.0

    @settings(max_examples=150, deadline=None)
    @given(H=matrices())
    def test_range(self, H):
        v = distance_to_constant(H)
        assert 0.0 <= v <= 1.0 + 1e-9


class TestDirichletEnergy:
    def test_single_edge_hand_value(self):
        adj = build_adjacency([(0, 1)], 2)
        # degrees 1, normalized rows [1/sqrt(2), 0]; both stored directions
        # contribute 1/2 each, halved once more
        assert dirichlet_energy([[1.0], [0.0]], adj) == pytest.approx(0.5)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(3)
        adj = random_graph(rng, 12)
        H = rng.standard_normal((12, 3))
        dense = adj.to_dense()
        deg = dense.sum(axis=1)
        Hn = H / np.sqrt(1.0 + deg)[:, None]
        ref = 0.0
        for i in range(12):
            for j in range(12):
                if dense[i, j] != 0.0:
                    ref += 0.5 * float(((Hn[i] - Hn[j]) ** 2).sum())
        assert dirichlet_energy(H, adj) == pytest.approx(ref, rel=1e-10)

    def test_isolated_node_contributes_nothing(self):
        adj = build_adjacency([(0, 1), (1, 2)], 5)
        H = np.random.default_rng(0).standard_normal((5, 2))
        val = dirichlet_energy(H, adj)
        H2 = H.copy()
        H2[4] = 100.0  # node 4 has no edges
        assert dirichlet_energy(H2, adj) == pytest.approx(val)

    def test_constant_features_have_zero_energy_on_regular_graph(self):
        ring = build_adjacency([(i, (i + 1) % 6) for i in range(6)], 6)
        assert dirichlet_energy(np.ones((6, 3)), ring) == pytest.approx(0.0, abs=1e-15)


def _one_pass_distance_to_constant(H):
    """The formula before the one-copy rewrite: a float64 copy, then a centred copy."""
    H = np.asarray(H, dtype=np.float64)
    centered = H - H.mean(axis=0, keepdims=True)
    num = np.linalg.norm(centered)
    den = max(np.linalg.norm(H), 1e-12)
    return float(num / den)


def _one_pass_dirichlet_energy(H, adjacency):
    """The formula before the one-copy rewrite: a float64 copy, Hn, gathers of 4,096 rows."""
    H = np.asarray(H, dtype=np.float64)
    deg = adjacency.row_sums()
    Hn = H / np.sqrt(1.0 + deg)[:, None]
    rows = adjacency.row_indices()
    cols = adjacency.col_indices
    total = 0.0
    step = max(1, int(4e6 // max(1, H.shape[1])))
    for lo in range(0, rows.shape[0], step):
        d = Hn[rows[lo : lo + step]]
        for s in range(0, d.shape[0], 4096):
            d[s : s + 4096] -= Hn[cols[lo + s : lo + min(s + 4096, d.shape[0])]]
        d *= d
        total += float(d.sum())
    return 0.5 * total


@pytest.fixture(scope="module")
def wide_graph():
    """3,000 nodes, about 12,000 stored entries and node 2,999 isolated: at f = 1,500
    the energy sums 5 edge chunks of 2,666 rows and gathers in blocks of 43 rows."""
    rng = np.random.default_rng(7)
    pairs = rng.integers(0, 2_999, size=(6_000, 2))
    pairs = {(int(min(i, j)), int(max(i, j))) for i, j in pairs if i != j}
    return build_adjacency(sorted(pairs), 3_000)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestOneCopyOracle:
    """The one-copy formulas give bitwise the values of the one-pass ones, in bounded memory."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("f", [1, 1_500])
    def test_bitwise_equal_to_the_one_pass_formulas(self, wide_graph, dtype, f):
        assert wide_graph.row_sums()[-1] == 0.0
        assert wide_graph.nnz > 2 * int(4e6 // 1_500)  # several edge chunks at f = 1,500
        H = np.random.default_rng(f).standard_normal((3_000, f)).astype(dtype)
        assert dirichlet_energy(H, wide_graph) == _one_pass_dirichlet_energy(H, wide_graph)
        assert distance_to_constant(H) == _one_pass_distance_to_constant(H)

    @settings(max_examples=50, deadline=None)
    @given(H=matrices())
    def test_bitwise_equal_on_small_matrices(self, H):
        adj = build_adjacency([(i, i + 1) for i in range(H.shape[0] - 1)], H.shape[0])
        assert dirichlet_energy(H, adj) == _one_pass_dirichlet_energy(H, adj)
        assert distance_to_constant(H) == _one_pass_distance_to_constant(H)

    def test_float64_input_is_not_modified(self, wide_graph):
        H = np.random.default_rng(1).standard_normal((3_000, 40))
        keep = H.copy()
        dirichlet_energy(H, wide_graph)
        distance_to_constant(H)
        assert np.array_equal(H, keep)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dirichlet_energy_holds_one_copy_and_one_chunk(self, wide_graph, dtype):
        n, f = 3_000, 1_500
        H = np.random.default_rng(2).standard_normal((n, f)).astype(dtype)
        peak = _traced_peak(dirichlet_energy, H, wide_graph)
        assert peak <= n * f * 8 + 32 * 2**20 + 4 * 2**20

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dirichlet_energy_holds_one_chunk_and_its_source_rows(self, wide_graph, dtype):
        n, f = 3_000, 1_500
        H = np.random.default_rng(2).standard_normal((n, f)).astype(dtype)
        rows, step = wide_graph.row_indices(), int(4e6 // f)
        # the float64 rows of the most nodes one chunk's sources span
        span = max(rows[min(lo + step, rows.size) - 1] - rows[lo] + 1
                   for lo in range(0, rows.size, step))
        assert span * f * 8 + 2**20 < n * f * 8  # a float64 copy of H beside the chunk fails
        peak = _traced_peak(dirichlet_energy, H, wide_graph)
        # the 32 MB chunk, the source rows and 1 MB for the gather blocks and indices
        assert peak <= step * f * 8 + span * f * 8 + 2**20

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_distance_to_constant_holds_one_copy(self, dtype):
        n, f = 3_000, 1_500
        H = np.random.default_rng(3).standard_normal((n, f)).astype(dtype)
        peak = _traced_peak(distance_to_constant, H)
        assert peak <= n * f * 8 + 2**20


class TestSmoothingDynamics:
    def test_propagation_smooths_on_regular_graph(self):
        # on a ring every node has the same degree, so repeated propagation
        # drives features toward constant rows and both diagnostics shrink
        n = 12
        ring = build_adjacency([(i, (i + 1) % n) for i in range(n)], n)
        L = normalized_laplacian(ring)
        X = np.random.default_rng(1).standard_normal((n, 5))
        # slowest non-constant mode decays as ((1+sqrt(3))/3)^k ~ 0.911^k,
        # so 60 hops squeeze it below 2% of the constant component
        Xk = sgc_propagate(L, X, 60)
        assert distance_to_constant(Xk) < 0.1 * distance_to_constant(X)
        assert dirichlet_energy(Xk, ring) < 1e-3 * dirichlet_energy(X, ring)


def _toy_stack(f, c, rng):
    d = 6
    return LayerStack(
        layers=[GcnLayer(Tensor(glorot_init(f, d, rng), requires_grad=True)),
                GcnLayer(Tensor(glorot_init(d, d, rng), requires_grad=True))],
        head=Tensor(glorot_init(d, c, rng), requires_grad=True),
    ).check()


class TestCollapseReport:
    def test_fields_and_per_layer(self, tiny_dataset):
        stack = _toy_stack(tiny_dataset.f, tiny_dataset.C, np.random.default_rng(0))
        rep = collapse_report(stack, tiny_dataset)
        assert rep.per_layer == []
        assert 0.0 <= rep.distance_to_constant <= 1.0
        assert rep.dirichlet_energy >= 0.0
        rep2 = collapse_report(stack, tiny_dataset, per_layer=True)
        assert len(rep2.per_layer) == 2  # one entry per conv layer output
        assert rep2.distance_to_constant == rep.distance_to_constant
        for entry in rep2.per_layer:
            assert set(entry) == {"distance_to_constant", "dirichlet_energy"}
        assert rep2.per_layer[-1]["distance_to_constant"] == rep.distance_to_constant

    def test_overflowing_model_is_numerical_abort_without_warnings(self, tiny_dataset):
        # the report runs the evaluation forward, which checks its logits
        stack = _toy_stack(tiny_dataset.f, tiny_dataset.C, np.random.default_rng(0))
        for t in stack.parameters():
            t.data *= np.float32(1e37)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalAbort, match="non-finite logits"):
                collapse_report(stack, tiny_dataset)


class TestExportEmbeddings:
    def test_csv_shape_and_determinism(self, tiny_dataset, tmp_path):
        stack = _toy_stack(tiny_dataset.f, tiny_dataset.C, np.random.default_rng(4))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_embeddings(stack, tiny_dataset, 1, p1)
        export_embeddings(stack, tiny_dataset, 1, p2)
        assert filecmp.cmp(p1, p2, shallow=False)
        with open(p1, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["node_id", "label"] + [f"dim_{k}" for k in range(6)]
        assert len(rows) == tiny_dataset.n + 1
        for i, row in enumerate(rows[1:]):
            assert int(row[0]) == i
            assert int(row[1]) == int(tiny_dataset.labels[i])
            float(row[2])  # values parse back

    def test_layer_zero_is_prepared_input(self, tiny_dataset, tmp_path):
        stack = _toy_stack(tiny_dataset.f, tiny_dataset.C, np.random.default_rng(4))
        path = tmp_path / "x.csv"
        export_embeddings(stack, tiny_dataset, 0, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows[0]) == 2 + tiny_dataset.f
        # prepared input is row-normalized, so each row sums to 1 in L1
        vals = np.array([[float(v) for v in r[2:]] for r in rows[1:]])
        assert np.allclose(np.abs(vals).sum(axis=1), 1.0, atol=1e-6)

    def test_bad_index(self, tiny_dataset, tmp_path):
        stack = _toy_stack(tiny_dataset.f, tiny_dataset.C, np.random.default_rng(4))
        with pytest.raises(ValueError, match="layer index"):
            export_embeddings(stack, tiny_dataset, 7, tmp_path / "bad.csv")
        with pytest.raises(ValueError, match="layer index"):
            export_embeddings(stack, tiny_dataset, -1, tmp_path / "bad.csv")
