"""Randomized gradient-check suite covering every differentiable component.

Each seed builds a tiny random graph and a stack that exercises a trainable
conv layer, a frozen conv layer with a low-rank adapter, the head, and the
masked cross-entropy loss; alternate seeds route through PairNorm as well.
Every check differentiates ``layers.stack_forward``, the forward that
training runs. All checks run in float64.
"""

import numpy as np

from . import autodiff as ad
from . import layers as ly
from .autodiff import Tensor
from .data import generate_sbm
from .sparse import build_adjacency, normalized_laplacian


def _case(seed):
    """Random tiny problem: graph, features, labels, train mask."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 11))
    f = int(rng.integers(3, 9))
    d = int(rng.integers(2, 9))
    c = int(rng.integers(2, 5))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    # keep at least a spanning path so no row of L is trivial
    pairs += [(i, i + 1) for i in range(n - 1)]
    adj = build_adjacency(pairs, n)
    X = rng.standard_normal((n, f))
    labels = rng.integers(0, c, size=n)
    mask = rng.choice(n, size=max(2, n // 2), replace=False)
    return adj, X, labels, mask, (f, d, c), rng


def _check_stack(stack, L, X, labels, mask, eps):
    """Max relative error of the trainable parameters' gradients of the training forward."""

    def loss_fn():
        logits = ly.stack_forward(stack, L, X, prepared=True)
        return ad.masked_cross_entropy(ad.log_softmax_rows(logits), labels, mask)

    return ad.grad_check(loss_fn, stack.trainable_parameters(), eps=eps)


def run_case(seed, eps=1e-5, use_pairnorm=None):
    """Gradient-check one random stack; returns the max relative error."""
    adj, X, labels, mask, (f, d, c), rng = _case(seed)
    L = normalized_laplacian(adj)
    if use_pairnorm is None:
        use_pairnorm = seed % 2 == 0
    rank = 2
    dt = np.float64

    w_in = Tensor(ly.glorot_init(f, d, rng, dt), requires_grad=True)
    frozen = ly.GcnLayer(Tensor(ly.glorot_init(d, d, rng, dt), requires_grad=False))
    adapter = ly.make_adapter(d, d, rank, rng, dt)
    # start B away from zero so its gradient path into A is live
    adapter.B.data = rng.standard_normal(adapter.B.data.shape) * 0.1
    frozen.attach_adapter(adapter)
    stack = ly.LayerStack(
        layers=[ly.GcnLayer(w_in), frozen],
        head=Tensor(ly.glorot_init(d, c, rng, dt), requires_grad=True),
        pairnorm_s=1.0 if use_pairnorm else None, row_normalize=False,
    ).check()
    err = _check_stack(stack, L, X, labels, mask, eps)

    # frozen weight must stay out of the gradient flow entirely
    assert frozen.W.grad is None, "frozen weight accumulated a gradient"
    return err


def run_suite(seeds=100, eps=1e-5, corrupt_backward=False):
    """The max relative error of ``seeds`` randomized checks (0.0 for none); optionally
    sabotage the conv layers' backward.

    The corrupt mode exists to prove the checker actually detects wrong
    gradients: it scales the gradient through each conv layer's ReLU by 1.05
    and the returned error must then exceed the threshold.
    """
    real_layer = ad.gcn_layer

    def bad_layer(*args, **kw):
        out = real_layer(*args, **kw)
        out._backward = lambda g, bwd=out._backward: bwd(g * 1.05)
        return out

    if corrupt_backward:
        ad.gcn_layer = bad_layer
    try:
        return max((run_case(seed, eps=eps) for seed in range(seeds)), default=0.0)
    finally:
        ad.gcn_layer = real_layer


def sgc_head_case(seed, eps=1e-5):
    """Separate check for the propagation-only model's head gradient."""
    ds = generate_sbm(2, 30, 0.5, 0.2, f=4, signal=1.0, seed=seed)
    rng = np.random.default_rng(seed)
    stack = ly.LayerStack(
        sgc_steps=3, row_normalize=False,
        head=Tensor(ly.glorot_init(ds.f, ds.C, rng, np.float64), requires_grad=True),
    ).check()
    return _check_stack(stack, normalized_laplacian(ds.adjacency), ds.X, ds.labels,
                        ds.splits.train, eps)
