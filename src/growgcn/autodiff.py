"""Minimal reverse-mode autodiff over numpy arrays.

Only the operations the model needs exist, each with a hand-written backward
closure. Gradients accumulate additively at fan-out, and anything reachable
only through tensors with ``requires_grad=False`` is skipped entirely, which
is what makes frozen layers free of gradient traffic. A backward forms an
input's gradient only when that input requires grad: ``matmul`` of constant
features by a trainable weight never builds the features' gradient.
"""

import numpy as np

from .errors import NumericalAbort


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        topo = []
        seen = {id(self)}
        stack = [(self, iter(self._parents))]
        while stack:
            node, parents = stack[-1]
            nxt = next(parents, None)
            if nxt is None:
                topo.append(node)
                stack.pop()
            elif id(nxt) not in seen:
                seen.add(id(nxt))
                stack.append((nxt, iter(nxt._parents)))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _compose(data, parents, backward):
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _accum(t, g):
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


def matmul(x, w):
    if x.data.shape[-1] != w.data.shape[0]:
        raise ValueError(f"matmul inner dims disagree: {x.data.shape} @ {w.data.shape}")
    out = x.data @ w.data

    def bwd(g):
        if x.requires_grad:
            _accum(x, g @ w.data.T)
        if w.requires_grad:
            _accum(w, x.data.T @ g)

    return _compose(out, (x, w), bwd)


def spmm(s, x):
    """Sparse CSR times dense: S @ X. The sparse side is a constant."""
    if s.n_cols != x.data.shape[0]:
        raise ValueError(f"spmm dims disagree: {s.shape} @ {x.data.shape}")
    dtype = x.data.dtype
    out = s.to_scipy(dtype) @ x.data

    def bwd(g):
        _accum(x, s.transpose_scipy(dtype) @ g)

    return _compose(out, (x,), bwd)


def add(x, y):
    if x.data.shape != y.data.shape:
        raise ValueError(f"add shapes disagree: {x.data.shape} vs {y.data.shape}")
    out = x.data + y.data

    def bwd(g):
        _accum(x, g)
        _accum(y, g)

    return _compose(out, (x, y), bwd)


def scale(x, c):
    c = float(c)
    out = x.data * c

    def bwd(g):
        _accum(x, g * c)

    return _compose(out, (x,), bwd)


def relu(x):
    mask = x.data > 0
    out = x.data * mask

    def bwd(g):
        _accum(x, g * mask)

    return _compose(out, (x,), bwd)


def log_softmax_rows(x):
    z = x.data - x.data.max(axis=1, keepdims=True)
    out = z - np.log(np.exp(z).sum(axis=1, keepdims=True))

    def bwd(g):
        _accum(x, g - np.exp(out) * g.sum(axis=1, keepdims=True))

    return _compose(out, (x,), bwd)


def masked_cross_entropy(log_probs, labels, mask, reduction="mean"):
    """Negative log-likelihood of the true class, averaged (or summed) over mask.

    ``mask`` holds row indices; a repeated index counts once per occurrence,
    in the loss and in its gradient.
    """
    if reduction not in ("mean", "sum"):
        raise ValueError(f"unknown reduction {reduction!r}")
    idx = np.asarray(mask, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("empty mask")
    labels = np.asarray(labels, dtype=np.int64)
    denom = float(idx.size) if reduction == "mean" else 1.0
    picked = log_probs.data[idx, labels[idx]]
    out = np.asarray(-picked.sum() / denom, dtype=log_probs.data.dtype)

    def bwd(g):
        gi = np.zeros_like(log_probs.data)
        np.add.at(gi, (idx, labels[idx]), -float(g) / denom)
        _accum(log_probs, gi)

    return _compose(out, (log_probs,), bwd)


def grad_check(f, params, eps=1e-5):
    """Compare backward() against central differences, entry by entry.

    ``f`` must be a deterministic closure over ``params`` returning a scalar
    Tensor; params should be float64 for the comparison to be meaningful.
    Returns the maximum relative error over all entries.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ValueError(f"eps {eps} outside [1e-7, 1e-3]")
    out = f()
    if not np.all(np.isfinite(out.data)):
        raise NumericalAbort("non-finite value in grad_check forward pass")
    for p in params:
        p.grad = None
    out.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    worst = 0.0
    for p, ana in zip(params, analytic):
        flat = p.data.reshape(-1)
        aflat = ana.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(f().data)
            flat[i] = orig - eps
            lo = float(f().data)
            flat[i] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise NumericalAbort("non-finite value in grad_check probe")
            num = (hi - lo) / (2.0 * eps)
            err = abs(aflat[i] - num) / max(1.0, abs(aflat[i]), abs(num))
            worst = max(worst, err)
    return worst
