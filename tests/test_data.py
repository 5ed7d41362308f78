import json
import tracemalloc

import numpy as np
import pytest

from growgcn import (
    DataError,
    GraphDataset,
    Splits,
    TrainConfig,
    build_adjacency,
    generate_sbm,
    load_bundle,
    save_bundle,
    split_per_class,
    train,
)
from growgcn.data import row_normalize


class TestSplits:
    def test_sorted_and_disjoint(self):
        s = Splits([3, 1], [2], [0])
        assert s.train.tolist() == [1, 3]

    def test_overlap_rejected(self):
        with pytest.raises(DataError, match="train/val"):
            Splits([0, 1], [1, 2], [3])

    def test_duplicates_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            Splits([0, 0], [1], [2])


class TestBundleIO:
    def test_roundtrip(self, small_sbm, tmp_path):
        save_bundle(small_sbm, tmp_path / "b")
        ds = load_bundle(tmp_path / "b")
        assert (ds.n, ds.f, ds.C, ds.name) == (small_sbm.n, small_sbm.f, small_sbm.C,
                                               small_sbm.name)
        assert np.array_equal(ds.labels, small_sbm.labels)
        # %.17g feature formatting roundtrips float64 exactly
        assert np.array_equal(ds.X, small_sbm.X)
        assert np.array_equal(ds.adjacency.to_dense(), small_sbm.adjacency.to_dense())
        for k in ("train", "val", "test"):
            assert np.array_equal(getattr(ds.splits, k), getattr(small_sbm.splits, k))

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="bundle directory"):
            load_bundle(tmp_path / "nope")
        (tmp_path / "b").mkdir()
        with pytest.raises(DataError, match="missing bundle file"):
            load_bundle(tmp_path / "b")

    def _write_valid(self, path):
        path.mkdir(exist_ok=True)
        (path / "meta.json").write_text('{"n": 3, "f": 2, "c": 2, "name": "t"}')
        (path / "edges.tsv").write_text("0\t1\n1\t2\n")
        (path / "features.csv").write_text("1.0,0.0\n0.5,0.5\n0.0,1.0\n")
        (path / "labels.txt").write_text("0\n0\n1\n")
        (path / "splits.json").write_text('{"train": [0, 2], "val": [1], "test": []}')
        return path

    def test_minimal_bundle_loads(self, tmp_path):
        ds = load_bundle(self._write_valid(tmp_path / "b"))
        assert ds.n == 3 and ds.adjacency.nnz == 4

    def test_label_out_of_range_names_line(self, tmp_path):
        b = self._write_valid(tmp_path / "b")
        (b / "labels.txt").write_text("0\n5\n1\n")
        with pytest.raises(DataError, match=r"labels.txt:2.*label 5 outside"):
            load_bundle(b)
        # the file's own line, counting the blank ones
        (b / "labels.txt").write_text("0\n0\n\n\n7\n")
        with pytest.raises(DataError, match=r"labels.txt:5: label 7 outside \[0, 2\)"):
            load_bundle(b)

    def test_bad_edge_line_number(self, tmp_path):
        b = self._write_valid(tmp_path / "b")
        (b / "edges.tsv").write_text("0\t1\n0 2\n")
        with pytest.raises(DataError, match=r"edges.tsv:2"):
            load_bundle(b)

    def test_edge_out_of_range_line(self, tmp_path):
        b = self._write_valid(tmp_path / "b")
        (b / "edges.tsv").write_text("0\t1\n1\t9\n")
        with pytest.raises(DataError, match=r"edges.tsv:2.*out of range"):
            load_bundle(b)

    def test_feature_shape_mismatch(self, tmp_path):
        b = self._write_valid(tmp_path / "b")
        (b / "features.csv").write_text("1.0,0.0\n0.5,0.5\n")
        with pytest.raises(DataError, match="does not match declared"):
            load_bundle(b)

    def test_malformed_feature_field(self, tmp_path):
        b = self._write_valid(tmp_path / "b")
        (b / "features.csv").write_text("1.0,0.0\n0.5,oops\n0.0,1.0\n")
        with pytest.raises(DataError, match="features.csv"):
            load_bundle(b)

    @pytest.mark.parametrize("text, line", [
        ("1.0,0.0\n0.5,nan\n0.0,1.0\n", 2),
        ("# header\n1.0,0.0\n\n0.5,0.5\n0.0,-inf\n", 5),
    ])
    def test_nonfinite_feature_names_line(self, tmp_path, text, line):
        b = self._write_valid(tmp_path / "b")
        (b / "features.csv").write_text(text)
        with pytest.raises(DataError, match=rf"features.csv:{line}: non-finite"):
            load_bundle(b)

    def test_split_overlap_rejected(self, tmp_path):
        b = self._write_valid(tmp_path / "b")
        (b / "splits.json").write_text('{"train": [0, 1], "val": [1], "test": [2]}')
        with pytest.raises(DataError, match="overlap"):
            load_bundle(b)

    def test_split_index_out_of_range(self, tmp_path):
        b = self._write_valid(tmp_path / "b")
        (b / "splits.json").write_text('{"train": [0, 7], "val": [1], "test": [2]}')
        with pytest.raises(DataError, match="out of range"):
            load_bundle(b)

    def test_missing_class_rejected(self, tmp_path):
        b = self._write_valid(tmp_path / "b")
        (b / "labels.txt").write_text("0\n0\n0\n")
        with pytest.raises(DataError, match="never appear"):
            load_bundle(b)


class TestSplitPerClass:
    def test_counts_and_disjoint(self):
        labels = np.repeat(np.arange(7), 40)
        s = split_per_class(labels, 20, 50, 50, seed=1)
        assert s.train.size == 140
        for cls in range(7):
            assert (labels[s.train] == cls).sum() == 20
        assert s.val.size == 50 and s.test.size == 50

    def test_deterministic_and_seed_sensitive(self):
        labels = np.repeat(np.arange(3), 30)
        a = split_per_class(labels, 5, 10, 10, seed=9)
        b = split_per_class(labels, 5, 10, 10, seed=9)
        c = split_per_class(labels, 5, 10, 10, seed=10)
        assert np.array_equal(a.train, b.train) and np.array_equal(a.val, b.val)
        assert not (np.array_equal(a.train, c.train) and np.array_equal(a.val, c.val))

    def test_empty_train_allowed(self):
        labels = np.array([0, 0, 1, 1])
        s = split_per_class(labels, 0, 2, 2, seed=0)
        assert s.train.size == 0 and s.val.size == 2 and s.test.size == 2

    def test_infeasible(self):
        labels = np.array([0, 0, 1, 1])
        with pytest.raises(DataError, match="need 3"):
            split_per_class(labels, 3, 0, 0, seed=0)
        with pytest.raises(DataError, match="cannot draw"):
            split_per_class(labels, 1, 2, 2, seed=0)


class TestGenerateSbm:
    def test_shapes_and_splits(self, small_sbm):
        ds = small_sbm
        assert ds.n == 150 and ds.f == 12 and ds.C == 3
        assert ds.splits.train.size == 60
        held = (150 - 60) // 2
        assert ds.splits.val.size == held and ds.splits.test.size == held

    def test_deterministic(self):
        a = generate_sbm(3, 30, 0.2, 0.05, f=6, signal=1.0, seed=5)
        b = generate_sbm(3, 30, 0.2, 0.05, f=6, signal=1.0, seed=5)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.adjacency.col_indices, b.adjacency.col_indices)
        assert np.array_equal(a.splits.train, b.splits.train)

    def test_feature_means_carry_signal(self):
        ds = generate_sbm(2, 200, 0.05, 0.05, f=8, signal=3.0, seed=2)
        m0 = ds.X[ds.labels == 0].mean(axis=0)
        m1 = ds.X[ds.labels == 1].mean(axis=0)
        # class blocks: dims 0-3 for class 0, dims 4-7 for class 1
        assert np.allclose(m0[:4], 3.0, atol=0.3) and np.allclose(m0[4:], 0.0, atol=0.3)
        assert np.allclose(m1[4:], 3.0, atol=0.3) and np.allclose(m1[:4], 0.0, atol=0.3)

    def test_equal_probabilities_monte_carlo(self):
        # p_in == p_out: within/between densities agree within 3 binomial sigmas
        n_in = n_btw = hits_in = hits_btw = 0
        for seed in range(10):
            ds = generate_sbm(2, 40, 0.15, 0.15, f=4, signal=1.0, seed=seed)
            same = ds.labels[:, None] == ds.labels[None, :]
            upper = np.triu(np.ones((ds.n, ds.n), dtype=bool), k=1)
            dense = ds.adjacency.to_dense() > 0
            n_in += int((same & upper).sum())
            n_btw += int((~same & upper).sum())
            hits_in += int((dense & same & upper).sum())
            hits_btw += int((dense & ~same & upper).sum())
        p_in_hat, p_btw_hat = hits_in / n_in, hits_btw / n_btw
        p = (hits_in + hits_btw) / (n_in + n_btw)
        sigma = np.sqrt(p * (1 - p) * (1 / n_in + 1 / n_btw))
        assert abs(p_in_hat - p_btw_hat) < 3 * sigma

    def test_two_cliques_perfectly_separable(self):
        ds = generate_sbm(2, 100, 1.0, 0.0, f=8, signal=10.0, seed=0)
        cfg = TrainConfig(depth=1, max_epochs=100, patience=30, seed=0)
        _, report = train(ds, cfg, trainer="standard", variant="gcn")
        assert report.test_acc == 1.0

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            generate_sbm(1, 30, 0.1, 0.01, f=4, signal=1.0, seed=0)
        with pytest.raises(ValueError):
            generate_sbm(2, 30, 0.1, 0.2, f=4, signal=1.0, seed=0)
        with pytest.raises(ValueError):
            generate_sbm(4, 30, 0.1, 0.01, f=2, signal=1.0, seed=0)
        with pytest.raises(ValueError, match="no room"):
            generate_sbm(2, 20, 0.5, 0.1, f=4, signal=1.0, seed=0)

    @pytest.mark.parametrize("signal", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_signal(self, signal):
        # the features would be non-finite, which a bundle refuses to load
        with pytest.raises(ValueError, match="signal must be a finite number"):
            generate_sbm(2, 25, 0.3, 0.05, f=8, signal=signal, seed=0)


def _one_draw_sbm(classes, nodes_per_class, p_in, p_out, f, signal, seed):
    """The generator before its row blocks: one n x n draw, probability matrix and mask."""
    n = classes * nodes_per_class
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(classes), nodes_per_class)
    prob = np.where(labels[:, None] == labels[None, :], p_in, p_out)
    edges = np.argwhere(np.triu(rng.random((n, n)) < prob, k=1))
    means = np.zeros((classes, f))
    for cls in range(classes):
        means[cls, cls * f // classes : (cls + 1) * f // classes] = signal
    X = means[labels] + rng.standard_normal((n, f))
    held = (n - 20 * classes) // 2
    splits = split_per_class(labels, 20, held, held, rng)
    return edges, X, labels, splits, n


class TestGenerateSbmBlocks:
    """Row-block draws give the one-draw generator's graph byte for byte, in bounded memory."""

    @pytest.mark.parametrize("seed", [0, 1, 11])
    @pytest.mark.parametrize("classes, per_class", [(3, 50), (4, 300), (7, 387)])
    def test_byte_identical_to_one_draw(self, classes, per_class, seed):
        # 2^20 // n rows per block: one block at n = 150, 2 at n = 1,200, 7 at n = 2,709
        got = generate_sbm(classes, per_class, 0.05, 0.005, f=9, signal=2.0, seed=seed)
        edges, X, labels, splits, n = _one_draw_sbm(classes, per_class, 0.05, 0.005, f=9,
                                                    signal=2.0, seed=seed)
        want = build_adjacency(edges, n)
        for name in ("row_offsets", "col_indices", "values"):
            a, b = getattr(got.adjacency, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert got.X.tobytes() == X.tobytes()  # the features are drawn after the edges
        assert got.labels.tobytes() == labels.tobytes()
        for k in ("train", "val", "test"):
            assert getattr(got.splits, k).tobytes() == getattr(splits, k).tobytes()

    def test_traced_peak_at_4000_nodes(self):
        tracemalloc.start()
        try:
            generate_sbm(4, 1_000, 0.01, 0.001, f=8, signal=2.0, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestValidation:
    def test_row_normalize(self):
        X = np.array([[2.0, 2.0], [0.0, 0.0], [-3.0, 1.0]])
        R = row_normalize(X)
        assert np.allclose(R, [[0.5, 0.5], [0.0, 0.0], [-0.75, 0.25]])

    def test_dataset_validate_catches_bad_labels(self, tiny_dataset):
        tiny_dataset.labels = tiny_dataset.labels.copy()
        tiny_dataset.labels[0] = 9
        with pytest.raises(DataError, match="outside"):
            tiny_dataset.validate()
