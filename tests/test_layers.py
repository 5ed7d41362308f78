import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growgcn import (
    GcnLayer,
    LayerStack,
    Tensor,
    build_adjacency,
    glorot_init,
    grad_check,
    identity_init,
    make_adapter,
    normalized_laplacian,
    sgc_propagate,
    stack_forward,
)
from growgcn import autodiff as ad
from growgcn import layers as ly

from conftest import BIT_GENERATORS, random_graph, same_state


class TestInits:
    def test_identity_exact(self):
        w = identity_init(4)
        assert w.dtype == np.float32
        assert np.array_equal(w, np.eye(4, dtype=np.float32))

    def test_glorot_bounds_and_moments(self):
        a = np.sqrt(6.0 / (64 + 32))
        w = glorot_init(64, 32, np.random.default_rng(0), np.float64)
        assert w.shape == (64, 32)
        assert np.all(np.abs(w) <= a)
        big = glorot_init(500, 400, np.random.default_rng(1), np.float64)
        ab = np.sqrt(6.0 / 900)
        assert abs(big.mean()) < 0.005
        # uniform(-a, a) variance is a^2/3
        assert abs(big.var() - ab * ab / 3) < 1e-4

    def test_glorot_deterministic(self):
        w1 = glorot_init(3, 4, np.random.default_rng(7))
        w2 = glorot_init(3, 4, np.random.default_rng(7))
        assert np.array_equal(w1, w2)


class TestLoraAdapter:
    def test_fresh_adapter_is_noop(self):
        rng = np.random.default_rng(0)
        adp = make_adapter(8, 6, 3, None, rng)
        assert np.all(adp.B.data == 0)
        assert adp.alpha == 3.0
        assert np.all(adp.delta() == 0)
        h = Tensor(rng.standard_normal((5, 8)).astype(np.float32))
        w0 = Tensor(rng.standard_normal((8, 6)).astype(np.float32))
        assert np.array_equal(ad.gcn_layer(None, h, w0, adp).data,
                              ad.gcn_layer(None, h, w0).data)

    def test_a_init_statistics(self):
        rng = np.random.default_rng(1)
        samples = np.concatenate(
            [make_adapter(50, 50, 10, None, rng).A.data.ravel() for _ in range(20)]
        )
        assert abs(samples.mean()) < 2e-3
        assert abs(samples.std() - 0.02) < 2e-3

    def test_scaling_applied(self):
        rng = np.random.default_rng(2)
        adp = make_adapter(4, 4, 2, 8.0, rng)
        adp.B.data = np.ones((2, 4), dtype=np.float32)
        expected = (8.0 / 2.0) * (adp.A.data @ adp.B.data)
        assert np.allclose(adp.delta(), expected, atol=1e-6)
        # the layer's product uses W0 + delta: an identity input gives it back
        w0 = Tensor(np.zeros((4, 4), dtype=np.float32))
        out = ad.gcn_layer(None, Tensor(np.eye(4, dtype=np.float32)), w0, adp).data
        assert np.allclose(out, np.maximum(expected, 0), atol=1e-6)

    def test_rank_bounds(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="rank"):
            make_adapter(4, 6, 5, None, rng)
        with pytest.raises(ValueError, match="rank"):
            make_adapter(4, 6, 0, None, rng)
        make_adapter(4, 6, 4, None, rng)  # rank == min(d_in, d_out) is legal


class TestGcnLayer:
    def test_adapter_mode_consistency(self):
        adp = make_adapter(3, 3, 1, None, np.random.default_rng(0))
        with pytest.raises(ValueError, match="adapter"):
            GcnLayer(Tensor(np.eye(3), requires_grad=True), adapter=adp)

    def test_merge_matches_effective(self):
        rng = np.random.default_rng(5)
        layer = GcnLayer(Tensor(rng.standard_normal((5, 5)).astype(np.float32),
                                requires_grad=True))
        layer.attach_adapter(make_adapter(5, 5, 2, None, rng))
        layer.adapter.B.data = rng.standard_normal((2, 5)).astype(np.float32) * 0.3
        h = Tensor(rng.standard_normal((7, 5)).astype(np.float32))
        eff = layer.W.data + layer.adapter.delta()
        adapted = ad.gcn_layer(None, h, layer.W, layer.adapter).data.copy()
        layer.merge_adapter()
        assert layer.adapter is None and layer.mode == "frozen"
        assert np.array_equal(layer.W.data, eff)
        # the merged layer computes what the adapted one did, bitwise
        assert np.array_equal(ad.gcn_layer(None, h, layer.W).data, adapted)

    def test_freeze_drops_grad_flag(self):
        layer = GcnLayer(Tensor(np.eye(3, dtype=np.float32), requires_grad=True))
        layer.freeze()
        assert layer.mode == "frozen" and not layer.W.requires_grad


class TestPairNorm:
    def test_output_norm_is_s_sqrt_n(self):
        rng = np.random.default_rng(0)
        h = Tensor(rng.standard_normal((13, 6)))
        for s in (1.0, 2.5):
            out = ly.pairnorm(h, s).data
            assert abs(np.linalg.norm(out) - s * np.sqrt(13)) < 1e-5
            assert np.allclose(out.mean(axis=0), 0.0, atol=1e-12)

    def test_zero_input_maps_to_zero(self):
        h = Tensor(np.zeros((4, 3)), requires_grad=True)
        out = ly.pairnorm(h, 1.0)
        assert np.all(out.data == 0.0)
        loss = ad.masked_cross_entropy(ad.log_softmax_rows(out), [0, 1, 2, 0], [0, 1])
        loss.backward()
        assert np.all(h.grad == 0.0)

    def test_constant_rows_map_to_zero(self):
        h = Tensor(np.ones((5, 2)) * 3.7)
        assert np.all(ly.pairnorm(h, 1.0).data == 0.0)

    def test_gradient(self):
        rng = np.random.default_rng(4)
        h = Tensor(rng.standard_normal((6, 4)), requires_grad=True)

        def f():
            out = ly.pairnorm(h, 1.5)
            return ad.masked_cross_entropy(ad.log_softmax_rows(out), [0, 1, 2, 3, 0, 1],
                                           [0, 2, 4])

        assert grad_check(f, [h]) < 1e-7


class TestDropout:
    def test_identity_when_eval_or_p0(self):
        h = Tensor(np.ones((3, 3)))
        assert ly.dropout(h, 0.0, True, np.random.default_rng(0)) is h
        assert ly.dropout(h, 0.5, False) is h

    def test_p0_consumes_no_rng(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state["state"]["state"]
        ly.dropout(Tensor(np.ones((3, 3))), 0.0, True, rng)
        assert rng.bit_generator.state["state"]["state"] == before

    def test_bounds(self):
        h = Tensor(np.ones((2, 2)))
        with pytest.raises(ValueError):
            ly.dropout(h, 1.0, True, np.random.default_rng(0))
        with pytest.raises(ValueError):
            ly.dropout(h, -0.1, True, np.random.default_rng(0))
        with pytest.raises(ValueError, match="rng"):
            ly.dropout(h, 0.5, True)

    def test_inverted_scaling_unbiased(self):
        rng = np.random.default_rng(8)
        h = Tensor(np.full((500, 200), 2.0))
        out = ly.dropout(h, 0.3, True, rng).data
        kept = out != 0
        # 100k Bernoulli(0.7) samples: sigma of the mean ~ 1.4e-3
        assert abs(kept.mean() - 0.7) < 0.01
        assert np.allclose(out[kept], 2.0 / 0.7)
        assert abs(out.mean() - 2.0) < 0.05

    def test_gradient_with_fixed_mask(self):
        h = Tensor(np.random.default_rng(1).standard_normal((5, 3)), requires_grad=True)

        def f():
            out = ly.dropout(h, 0.4, True, np.random.default_rng(42))
            return ad.masked_cross_entropy(ad.log_softmax_rows(out), [0, 1, 2, 0, 1], [0, 3])

        assert grad_check(f, [h]) < 1e-7

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 80),
           d=st.sampled_from([1, 3, 6, 40, 300]), p=st.sampled_from([0.1, 0.5, 0.9]),
           dtype=st.sampled_from([np.float32, np.float64]),
           bit_generator=st.sampled_from(BIT_GENERATORS), buffered=st.booleans(),
           data=st.data())
    def test_rows_match_full_dropout_and_rng_stream(self, seed, n, d, p, dtype, bit_generator,
                                                    buffered, data):
        # few rows of a wide input leave gaps long enough to be skipped, not drawn
        most = data.draw(st.integers(1, n))
        rows = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1,
                                                 max_size=most))), dtype=np.int64)
        full = np.random.default_rng(seed).standard_normal((n, d)).astype(dtype)
        rng_full = np.random.Generator(bit_generator(seed + 1))
        rng_rows = np.random.Generator(bit_generator(seed + 1))
        if buffered:  # a pending 32-bit value, which advance() would drop
            assert rng_full.random(dtype=np.float32) == rng_rows.random(dtype=np.float32)
        h_full = Tensor(full, requires_grad=True)
        h_rows = Tensor(full[rows], requires_grad=True)
        want = ly.dropout(h_full, p, True, rng_full)
        got = ly.dropout(h_rows, p, True, rng_rows, rows, n)
        assert got.data.dtype == want.data.dtype
        assert np.array_equal(got.data, want.data[rows])
        # the generator is left where the full mask leaves it
        assert same_state(rng_rows.bit_generator.state, rng_full.bit_generator.state)
        assert rng_rows.random(dtype=np.float32) == rng_full.random(dtype=np.float32)
        assert rng_rows.random() == rng_full.random()
        g = np.random.default_rng(seed + 2).standard_normal((n, d)).astype(dtype)
        want._backward(g)
        got._backward(g[rows])
        assert np.array_equal(h_rows.grad, h_full.grad[rows])

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.PCG64DXSM])
    def test_few_rows_skip_the_unused_draws(self, bit_generator):
        n, d = 20_000, 300  # the full mask would be 48 MB of float64
        rows = np.array([0, 1, 2, 7, 4_000, 4_003, 19_999], dtype=np.int64)
        h = Tensor(np.ones((rows.size, d)))
        rng = np.random.Generator(bit_generator(5))
        tracemalloc.start()
        try:
            got = ly.dropout(h, 0.5, True, rng, rows, n).data
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        want_rng = np.random.Generator(bit_generator(5))
        want = (want_rng.random((n, d))[rows] >= 0.5) * 2.0
        assert np.array_equal(got, want)
        assert same_state(rng.bit_generator.state, want_rng.bit_generator.state)

    def test_unsorted_rows_match_full_dropout(self):
        n, d = 3_000, 300
        rows = np.array([2_000, 7, 2_999, 0], dtype=np.int64)
        rng, want_rng = np.random.default_rng(3), np.random.default_rng(3)
        got = ly.dropout(Tensor(np.ones((rows.size, d))), 0.5, True, rng, rows, n).data
        assert np.array_equal(got, (want_rng.random((n, d))[rows] >= 0.5) * 2.0)
        assert same_state(rng.bit_generator.state, want_rng.bit_generator.state)


class TestSgcPropagate:
    def test_zero_steps_identity(self, path3):
        L = normalized_laplacian(path3)
        X = np.arange(6.0).reshape(3, 2)
        assert np.array_equal(sgc_propagate(L, X, 0), X)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        adj = random_graph(rng, 10)
        L = normalized_laplacian(adj)
        X = rng.standard_normal((10, 4))
        D = L.to_dense()
        assert np.allclose(sgc_propagate(L, X, 3), D @ (D @ (D @ X)), atol=1e-12)

    def test_rejects_negative(self, path3):
        with pytest.raises(ValueError):
            sgc_propagate(normalized_laplacian(path3), np.ones((3, 1)), -1)


def _plain_stack(rng, f, d, c, depth, nonneg=False):
    w_in = glorot_init(f, d, rng, np.float64)
    if nonneg:
        w_in = np.abs(w_in)
    return LayerStack(
        layers=[GcnLayer(Tensor(w_in, requires_grad=True))]
        + [GcnLayer(Tensor(identity_init(d, np.float64), requires_grad=True))
           for _ in range(depth - 1)],
        head=Tensor(np.eye(d, c, dtype=np.float64), requires_grad=True),
        row_normalize=False,
    )


class TestLayerStack:
    def test_depth_and_dims(self):
        rng = np.random.default_rng(0)
        st = _plain_stack(rng, 6, 4, 4, 3)
        assert st.depth == 3
        assert len(st.parameters()) == 4  # three layers' W, head
        assert [n for n, _ in st.named_parameters()] == ["layer0.W", "layer1.W", "layer2.W", "head"]

    def test_check_catches_dim_break(self):
        rng = np.random.default_rng(0)
        st = _plain_stack(rng, 6, 4, 4, 2)
        st.layers.append(GcnLayer(Tensor(np.ones((5, 4)), requires_grad=True)))
        with pytest.raises(ValueError, match="input dim"):
            st.check()

    @pytest.mark.parametrize("setting, value, match", [
        ("sgc_steps", True, "sgc_steps"),
        ("sgc_steps", 1.0, "sgc_steps"),
        ("sgc_steps", -1, "sgc_steps"),
        ("dropout_p", False, "dropout p="),
        ("dropout_p", float("nan"), "dropout p="),
        ("dropout_p", 1.0, "dropout p="),
        ("dropout_p", "0.5", "dropout p="),
        ("pairnorm_s", 0.0, "pairnorm scale"),
        ("pairnorm_s", float("inf"), "pairnorm scale"),
        ("pairnorm_s", float("nan"), "pairnorm scale"),
        ("pairnorm_s", True, "pairnorm scale"),
        ("row_normalize", "no", "row_normalize"),
        ("row_normalize", 0, "row_normalize"),
    ], ids=["steps-bool", "steps-float", "steps-negative", "dropout-bool", "dropout-nan",
            "dropout-one", "dropout-text", "pairnorm-zero", "pairnorm-inf", "pairnorm-nan",
            "pairnorm-bool", "row-normalize-text", "row-normalize-int"])
    def test_check_rejects_bad_setting(self, setting, value, match):
        st = _plain_stack(np.random.default_rng(0), 6, 4, 4, 2).check()
        setattr(st, setting, value)
        with pytest.raises(ValueError, match=match):
            st.check()

    def test_sgc_stack_needs_steps(self):
        head = Tensor(np.ones((3, 2)), requires_grad=True)
        conv = GcnLayer(Tensor(np.ones((3, 3)), requires_grad=True))
        # neither layers nor steps, and layers and steps
        for layers, steps in (([], 0), ([conv], 2)):
            with pytest.raises(ValueError, match="propagation"):
                LayerStack(layers=layers, head=head, sgc_steps=steps).check()

    def test_identity_tower_equals_pure_propagation(self):
        # identity hidden weights + identity head + nonneg input and weights:
        # the network is exactly K propagation steps of X @ W_in
        rng = np.random.default_rng(3)
        adj = random_graph(rng, 12)
        L = normalized_laplacian(adj)
        X = np.abs(rng.standard_normal((12, 7)))
        depth = 5
        stack = _plain_stack(rng, 7, 4, 4, depth, nonneg=True)
        logits = stack_forward(stack, L, X).data
        ref = X @ stack.layers[0].W.data
        D = L.to_dense()
        for _ in range(depth):
            ref = D @ ref
        assert np.allclose(logits, ref, rtol=1e-6, atol=1e-9)

    def test_forward_hidden_record(self, small_sbm):
        rng = np.random.default_rng(0)
        L = normalized_laplacian(small_sbm.adjacency)
        stack = LayerStack(
            layers=[GcnLayer(Tensor(glorot_init(small_sbm.f, 8, rng), requires_grad=True)),
                    GcnLayer(Tensor(glorot_init(8, 8, rng), requires_grad=True))],
            head=Tensor(glorot_init(8, small_sbm.C, rng), requires_grad=True),
        )
        logits, hidden = stack_forward(stack, L, small_sbm.X, return_hidden=True)
        assert len(hidden) == 3  # input, layer 1, layer 2
        assert hidden[0].shape == (small_sbm.n, small_sbm.f)
        assert hidden[1].shape == (small_sbm.n, 8)
        assert logits.data.shape == (small_sbm.n, small_sbm.C)

    def test_eval_forward_keeps_no_graph(self, small_sbm):
        rng = np.random.default_rng(0)
        stack = _plain_stack(rng, small_sbm.f, 8, small_sbm.C, 3)
        L = normalized_laplacian(small_sbm.adjacency)
        logits, hidden = ly.eval_forward(stack, L, small_sbm.X, return_hidden=True)
        assert logits._prev is None and logits._backward is None
        want = stack_forward(stack, L, small_sbm.X)
        assert want._prev is not None and np.array_equal(logits.data, want.data)
        assert np.array_equal(ad.matmul(Tensor(hidden[-1]), stack.head).data, want.data)

    def test_eval_forward_holds_a_constant_number_of_layer_outputs(self):
        n, d, depth = 4_000, 16, 12
        rng = np.random.default_rng(1)
        L = normalized_laplacian(build_adjacency(
            [(i, (i + 1) % n) for i in range(n)] + [(i, (i + 7) % n) for i in range(n)], n))
        X = rng.random((n, d))
        stack = _plain_stack(rng, d, d, 3, depth)
        ly.eval_forward(stack, L, X)  # the scipy copy of L is kept across calls
        tracemalloc.start()
        try:
            ly.eval_forward(stack, L, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the layer's input, its propagation and its output; with a graph, 2 per layer
        assert peak < 4 * X.nbytes

    @pytest.mark.parametrize("f, widths", [(120, [8, 8, 8]), (4, [4, 8, 8])])
    def test_sparse_products_run_over_the_narrower_side(self, monkeypatch, f, widths):
        # f = 120 into 8: layer 0 multiplies by W first, so no product has 120 columns;
        # f = 4 into 8 widens, so layer 0 still propagates its 4 input columns first
        rng = np.random.default_rng(5)
        L = normalized_laplacian(random_graph(rng, 30))
        stack = _plain_stack(rng, f, 8, 3, 3)
        columns, csr_times = [], ad._csr_times

        def spy(m, x, ws):
            columns.append(x.shape[1])
            return csr_times(m, x, ws)

        monkeypatch.setattr(ad, "_csr_times", spy)
        ly.eval_forward(stack, L, rng.standard_normal((30, f)))
        assert columns == widths

    def test_gradcheck_full_stack_with_adapter(self, path3):
        # composed check of the exact forward the trainers build
        L = normalized_laplacian(path3)
        rng = np.random.default_rng(9)
        w_in = Tensor(glorot_init(3, 4, rng, np.float64), requires_grad=True)
        frozen = GcnLayer(Tensor(glorot_init(4, 4, rng, np.float64)))
        frozen.attach_adapter(make_adapter(4, 4, 2, None, rng, np.float64))
        frozen.adapter.B.data = rng.standard_normal((2, 4)) * 0.2
        head = Tensor(glorot_init(4, 3, rng, np.float64), requires_grad=True)
        stack = LayerStack(layers=[GcnLayer(w_in), frozen], head=head, row_normalize=False)
        X = np.random.default_rng(10).standard_normal((3, 3))

        def f():
            logits = stack_forward(stack, L, X)
            return ad.masked_cross_entropy(ad.log_softmax_rows(logits), [0, 1, 2], [0, 1, 2])

        err = grad_check(f, [w_in, frozen.adapter.A, frozen.adapter.B, head])
        assert err < 1e-7
        assert frozen.W.grad is None
