import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from growgcn import (NumericalAbort, Tensor, build_adjacency, grad_check, make_adapter,
                     normalized_laplacian)
from growgcn import autodiff as ad


def t64(x, grad=False):
    return Tensor(np.asarray(x, dtype=np.float64), requires_grad=grad)


class TestForwardValues:
    def test_spmm_hand_value(self):
        from growgcn import SparseMatrix
        s = SparseMatrix(2, 2, [0, 2, 4], [0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5])
        out = ad.spmm(s, t64([[1.0], [3.0]]))
        assert out.data.tolist() == [[2.0], [2.0]]

    def test_spmm_identity_and_zero_row(self):
        from growgcn import SparseMatrix
        eye = SparseMatrix(2, 2, [0, 1, 2], [0, 1], [1.0, 1.0])
        x = t64([[3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(ad.spmm(eye, x).data, x.data)
        zrow = SparseMatrix(2, 2, [0, 1, 1], [0], [2.0])
        assert ad.spmm(zrow, x).data.tolist() == [[6.0, 8.0], [0.0, 0.0]]

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="matmul"):
            ad.matmul(t64(np.ones((2, 3))), t64(np.ones((2, 3))))
        s = normalized_laplacian(build_adjacency([(0, 1)], 2))
        with pytest.raises(ValueError, match="spmm"):
            ad.spmm(s, t64(np.ones((3, 2))))
        with pytest.raises(ValueError, match="gcn_layer"):
            ad.gcn_layer(s, t64(np.ones((3, 2))), t64(np.ones((2, 2))))
        with pytest.raises(ValueError, match="gcn_layer"):
            ad.gcn_layer(s, t64(np.ones((2, 3))), t64(np.ones((2, 2))))
        # C is the product of the propagated input, so it goes with no op
        adapter = make_adapter(2, 2, 1, 1.0, np.random.default_rng(0), np.float64)
        with pytest.raises(ValueError, match="no op"):
            ad.gcn_layer(s, t64(np.ones((2, 2))), t64(np.ones((2, 2))), adapter, np.ones((2, 2)))

    def test_relu_zero_subgradient(self):
        x = t64([[-1.0, 0.0, 2.0]], grad=True)
        out = ad.gcn_layer(None, x, t64(np.eye(3)))  # relu(x @ I)
        assert out.data.tolist() == [[0.0, 0.0, 2.0]]
        loss = ad.masked_cross_entropy(ad.log_softmax_rows(out), [2], [0])
        loss.backward()
        # the entry sitting exactly at 0 gets subgradient 0
        assert x.grad[0, 1] == 0.0

    def test_log_softmax_large_logits_stable(self):
        x = t64([[1000.0, 0.0], [0.0, -1000.0]])
        out = ad.log_softmax_rows(x).data
        assert np.all(np.isfinite(out))
        assert np.allclose(np.exp(out).sum(axis=1), 1.0)

    @given(hnp.arrays(np.float64, (3, 4), elements=st.floats(-50, 50)))
    @settings(max_examples=40, deadline=None)
    def test_log_softmax_rows_normalize(self, arr):
        out = ad.log_softmax_rows(t64(arr)).data
        assert np.allclose(np.exp(out).sum(axis=1), 1.0, atol=1e-12)

    def test_cross_entropy_hand_value(self):
        # logits [2, 0], true class 0: loss = ln(1 + e^-2)
        logits = t64([[2.0, 0.0]])
        loss = ad.masked_cross_entropy(ad.log_softmax_rows(logits), [0], [0])
        assert math.isclose(float(loss.data), math.log(1 + math.exp(-2)), rel_tol=1e-12)
        with pytest.raises(ValueError, match="empty"):
            ad.masked_cross_entropy(ad.log_softmax_rows(logits), [0], [])


class TestBackward:
    def test_fanout_accumulates(self):
        # x feeds both sides of x @ x, so its gradient is the sum of two products
        x = t64([[1.0, 2.0], [-0.5, 0.3]], grad=True)

        def f():
            return ad.masked_cross_entropy(ad.log_softmax_rows(ad.matmul(x, x)), [0, 1], [0, 1])

        assert grad_check(f, [x]) < 1e-7

    @pytest.mark.parametrize("with_ws", [False, True])
    def test_shared_gradient_is_never_written_in_place(self, with_ws):
        # x's two contributions add into a new array, not into the first one; the
        # product drops its own gradient once its backward has read it
        ws = ad.Workspace() if with_ws else None
        x = t64([[1.0, -2.0], [0.5, 3.0]], grad=True)
        out = ad.matmul(x, x, ws=ws)
        ad.masked_cross_entropy(ad.log_softmax_rows(out), [1, 0], [0, 1]).backward()
        a, b = t64(x.data, grad=True), t64(x.data.copy(), grad=True)
        ad.masked_cross_entropy(ad.log_softmax_rows(ad.matmul(a, b)), [1, 0], [0, 1]).backward()
        assert out.grad is None
        assert x.grad is not a.grad and np.array_equal(x.grad, a.grad + b.grad)

    def test_op_on_two_computed_inputs_raises(self):
        # the tape is a chain: a computed tensor may not feed both sides of one op
        h = ad.matmul(t64([[1.0, 2.0], [-0.5, 0.3]], grad=True), t64(np.eye(2)))
        with pytest.raises(ValueError, match="chain"):
            ad.matmul(h, h)
        with ad.no_grad():  # an op that records nothing has no chain to break
            ad.matmul(h, h)

    def test_backward_follows_the_chain(self):
        # each node links to its one computed input; leaves are not on the walk
        x, w = t64(np.ones((2, 2)), grad=True), t64(np.eye(2), grad=True)
        h = ad.matmul(x, w)
        lp = ad.log_softmax_rows(ad.matmul(h, w))
        loss = ad.masked_cross_entropy(lp, [0, 1], [0, 1])
        assert loss._prev is lp and lp._prev._prev is h and h._prev is None
        loss.backward()
        assert all(t.grad is None for t in (loss, lp, h)) and x.grad is not None
        assert w.grad is not None  # w feeds two ops: the sum of its two gradients

    def test_requires_grad_gating(self):
        frozen = t64(np.ones((2, 2)), grad=False)
        live = t64(np.ones((2, 2)), grad=True)
        out = ad.matmul(frozen, live)
        loss = ad.masked_cross_entropy(ad.log_softmax_rows(out), [0, 1], [0, 1])
        loss.backward()
        assert frozen.grad is None
        assert live.grad is not None

    def test_matmul_skips_gradient_of_constant_input(self):
        # the backward must not form g @ W.T, an n x f array, for features
        # that do not require grad
        rng = np.random.default_rng(0)
        X = rng.standard_normal((1000, 300))
        W = t64(rng.standard_normal((300, 4)) * 0.01, grad=True)
        loss = ad.masked_cross_entropy(ad.log_softmax_rows(ad.matmul(t64(X), W)),
                                       np.zeros(1000, dtype=np.int64), np.arange(1000))
        tracemalloc.start()
        try:
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert W.grad.shape == (300, 4)
        assert peak < X.nbytes

    def test_constant_graph_backward_noop(self):
        a = t64([[1.0, 2.0]])
        out = ad.matmul(a, t64([[2.0], [1.0]]))
        assert out.requires_grad is False and out._prev is None and out._backward is None

    def test_backward_requires_scalar(self):
        x = t64(np.ones((2, 2)), grad=True)
        with pytest.raises(ValueError, match="scalar"):
            ad.matmul(x, x).backward()

    def test_deep_chain_no_recursion_limit(self):
        x = t64(np.ones((2, 2)) * 0.9, grad=True)
        h = x
        for _ in range(3000):
            h = ad.matmul(h, t64(np.eye(2)))
        loss = ad.masked_cross_entropy(ad.log_softmax_rows(h), [0, 1], [0, 1])
        loss.backward()
        assert x.grad is not None


class TestGcnLayer:
    """The one-node conv layer in each of its forms, in float64."""

    @pytest.mark.parametrize("form", ["trainable", "adapter", "adapter+C", "dropout",
                                      "trainable 5x3", "adapter 5x3", "dropout 5x3"])
    def test_values_gradients_and_workspace(self, path3, form):
        # a 5x3 weight narrows, so the layer forms L @ (x @ W) and propagates its gradient first
        form, _, narrow = form.partition(" ")
        d_in, d_out = (5, 3) if narrow else (4, 4)
        rng = np.random.default_rng(11)
        L = normalized_laplacian(path3)
        h = t64(rng.standard_normal((3, d_in)), grad=form != "adapter+C")
        W = t64(rng.standard_normal((d_in, d_out)), grad=form in ("trainable", "dropout"))
        head = t64(rng.standard_normal((d_out, 2)), grad=True)
        adapter = keep = None
        if form.startswith("adapter"):
            adapter = make_adapter(d_in, d_out, 2, 3.0, rng, np.float64)
            adapter.B.data = rng.standard_normal((2, d_out))
        p = 0.4 if form == "dropout" else 0.0
        if p:
            keep = rng.random((3, d_in)) >= p
        # with C the input is the propagated one and constant, and C = input @ W
        op, C = (None, h.data @ W.data) if form == "adapter+C" else (L, None)
        params = [t for t in (h, W, head) if t.requires_grad]
        params += [adapter.A, adapter.B] if adapter is not None else []

        def run(ws=None):
            out = ad.gcn_layer(op, h, W, adapter, C, keep, p, ws=ws)
            return out, ad.masked_cross_entropy(
                ad.log_softmax_rows(ad.matmul(out, head, ws=ws)), [0, 1, 0], [0, 1, 2])

        x = h.data if keep is None else h.data * keep / (1 - p)
        Lx = x if op is None else L.to_dense() @ x
        w = W.data if adapter is None else W.data + adapter.delta()
        np.testing.assert_allclose(run()[0].data, np.maximum(Lx @ w, 0), rtol=1e-12)
        assert grad_check(lambda: run()[1], params) < 1e-7

        def cycle(ws):
            for t in params:
                t.grad = None
            if ws is not None:
                ws.reset()
            out, loss = run(ws)
            loss.backward()
            assert out.grad is None  # dropped once the node's backward read it
            return [out.data.copy()] + [t.grad.copy() for t in params]

        want, ws = cycle(None), ad.Workspace()
        for _ in range(2):
            assert all(np.array_equal(a, b) for a, b in zip(cycle(ws), want, strict=True))


class TestNoGrad:
    def test_ops_record_no_graph_and_give_equal_values(self, path3):
        L = normalized_laplacian(path3)
        rng = np.random.default_rng(4)
        h = t64(rng.standard_normal((3, 4)), True)
        for d_out in (4, 2):  # a square weight, then a narrowing one, which multiplies first
            W, head = t64(rng.standard_normal((4, d_out)), True), t64(np.ones((d_out, 2)), True)
            want = ad.gcn_layer(L, h, W)
            with ad.no_grad():
                out = ad.gcn_layer(L, h, W)
                logits = ad.matmul(out, head)
            for t in (out, logits):
                assert t._prev is None and t._backward is None and not t.requires_grad
            assert np.array_equal(out.data, want.data) and want._backward is not None

    def test_mode_comes_back_after_an_exception_and_nesting(self):
        x, w = t64(np.ones((2, 2)), True), t64(np.eye(2))
        with pytest.raises(RuntimeError):
            with ad.no_grad():
                with ad.no_grad():
                    pass
                assert ad.matmul(x, w)._backward is None
                raise RuntimeError("inside")
        assert ad.matmul(x, w)._backward is not None


class TestGradCheck:
    def test_each_primitive(self, path3):
        L = normalized_laplacian(path3)
        rng = np.random.default_rng(7)
        w = t64(rng.standard_normal((3, 4)), grad=True)
        x = t64(rng.standard_normal((3, 3)))
        labels, mask = [0, 2, 1], [0, 1, 2]
        w2 = t64(np.random.default_rng(8).standard_normal((4, 4)), grad=True)
        w3 = t64(np.random.default_rng(9).standard_normal((4, 4)), grad=True)

        def f():
            h = ad.spmm(L, x)
            h = ad.gcn_layer(None, h, w)
            h = ad.gcn_layer(L, h, w2)
            h = ad.matmul(h, w3)
            return ad.masked_cross_entropy(ad.log_softmax_rows(h), labels, mask)

        assert grad_check(f, [w, w2, w3]) < 1e-7

    def test_duplicate_mask_indices_accumulate(self, path3):
        L = normalized_laplacian(path3)
        rng = np.random.default_rng(4)
        w = t64(rng.standard_normal((3, 2)), grad=True)
        x = t64(rng.standard_normal((3, 3)))

        def f():
            h = ad.matmul(ad.spmm(L, x), w)
            return ad.masked_cross_entropy(ad.log_softmax_rows(h), [0, 1, 0], [1, 1])

        assert grad_check(f, [w]) < 1e-7

    def test_unique_mask_gradient_is_plain_scatter(self):
        lp = Tensor(np.random.default_rng(5).standard_normal((6, 3)).astype(np.float32),
                    requires_grad=True)
        labels, mask = np.array([0, 2, 1, 1, 0, 2]), np.array([4, 0, 3])
        ad.masked_cross_entropy(lp, labels, mask).backward()
        expected = np.zeros_like(lp.data)
        expected[mask, labels[mask]] = -1.0 / 3.0
        assert np.array_equal(lp.grad, expected)

    def test_eps_bounds(self):
        w = t64([[1.0]], grad=True)

        def f():
            return ad.masked_cross_entropy(ad.log_softmax_rows(ad.matmul(w, t64([[1.0, 0.0]]))), [0], [0])

        with pytest.raises(ValueError):
            grad_check(f, [w], eps=1e-8)
        with pytest.raises(ValueError):
            grad_check(f, [w], eps=1e-2)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_forward_aborts(self):
        w = t64([[np.inf]], grad=True)

        def f():
            return ad.masked_cross_entropy(ad.log_softmax_rows(ad.matmul(w, t64([[1.0, 0.0]]))), [0], [0])

        with pytest.raises(NumericalAbort):
            grad_check(f, [w])
