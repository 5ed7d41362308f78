"""Minimal reverse-mode autodiff over numpy arrays.

Only the operations the model needs exist, each with a hand-written backward
closure. Gradients accumulate additively at fan-out, and anything reachable
only through tensors with ``requires_grad=False`` is skipped entirely, which
is what makes frozen layers free of gradient traffic. A backward forms an
input's gradient only when that input requires grad: ``matmul`` of constant
features by a trainable weight never builds the features' gradient.

Two invariants keep shared arrays safe. A gradient is never written in
place: accumulating at fan-out writes ``grad + g`` into a new array. And
``add`` hands one array, its output's gradient, to both of its inputs.

``spmm``, ``matmul``, ``relu``, ``add`` and ``scale``, with their backward
closures, write their results into a ``Workspace`` when given ``ws=``, and
allocate otherwise.
"""

import numpy as np
import scipy.sparse as sp

from .errors import NumericalAbort


class Workspace:
    """Result buffers reused from one forward/backward cycle to the next.

    Buffers are keyed by shape and dtype, and the k-th request for a key
    since the last ``reset()`` returns the same array every time. So a cycle
    that repeats the previous one's requests allocates nothing, and it
    overwrites every array of the previous cycle: reset only once nothing
    of the previous graph or its gradients is read again.
    """

    def __init__(self):
        self._buffers = {}
        self._taken = {}

    def __len__(self):
        return sum(len(b) for b in self._buffers.values())

    def reset(self):
        self._taken.clear()

    def take(self, shape, dtype):
        key = (tuple(shape), np.dtype(dtype))
        buffers = self._buffers.setdefault(key, [])
        k = self._taken.get(key, 0)
        if k == len(buffers):
            buffers.append(np.empty(key[0], key[1]))
        self._taken[key] = k + 1
        return buffers[k]


def _buffer(ws, shape, dtype):
    """A workspace buffer for an op's result, or None (numpy allocates) without one."""
    return None if ws is None else ws.take(shape, dtype)


def _csr_matvecs_kernel():
    """scipy's CSR-times-dense kernel if it accumulates as ``csr @ dense`` does, else None.

    ``csr @ dense`` always allocates its result; this kernel adds into an
    existing one. It is private to scipy, so a probe checks its signature
    and result before any use.
    """
    try:
        from scipy.sparse._sparsetools import csr_matvecs
        m = sp.csr_matrix(np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 4.0]]))
        x = np.arange(6.0).reshape(3, 2)
        out = np.zeros((2, 2))
        csr_matvecs(2, 3, 2, m.indptr, m.indices, m.data, x.ravel(), out.reshape(-1))
    except (ImportError, TypeError, ValueError):
        return None
    return csr_matvecs if np.array_equal(out, m @ x) else None


_CSR_MATVECS = _csr_matvecs_kernel()


def _csr_times(m, x, ws):
    """``m @ x`` for a scipy CSR ``m`` and a dense 2-D ``x``, into ``ws`` when given.

    The buffer path runs the kernel that ``m @ x`` runs for a multi-column
    ``x``, on a zeroed buffer, so both round alike.
    """
    if ws is None or _CSR_MATVECS is None or x.shape[1] == 1 or m.dtype != x.dtype:
        return m @ x
    out = ws.take((m.shape[0], x.shape[1]), x.dtype)
    out.fill(0)
    _CSR_MATVECS(m.shape[0], m.shape[1], x.shape[1], m.indptr, m.indices, m.data,
                 x.ravel(), out.reshape(-1))
    return out


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


def _accum(t, g, ws=None):
    if t.requires_grad:
        t.grad = g if t.grad is None else np.add(
            t.grad, g, out=_buffer(ws, g.shape, np.result_type(t.grad, g)))


def _matmul(a, b, ws):
    return np.matmul(a, b, out=_buffer(ws, a.shape[:-1] + b.shape[1:], np.result_type(a, b)))


def matmul(x, w, *, ws=None):
    if x.data.shape[-1] != w.data.shape[0]:
        raise ValueError(f"matmul inner dims disagree: {x.data.shape} @ {w.data.shape}")
    out = _matmul(x.data, w.data, ws)

    def bwd(g):
        if x.requires_grad:
            _accum(x, _matmul(g, w.data.T, ws), ws)
        if w.requires_grad:
            _accum(w, _matmul(x.data.T, g, ws), ws)

    return _compose(out, (x, w), bwd)


def spmm(s, x, *, ws=None):
    """Sparse CSR times dense: S @ X. The sparse side is a constant."""
    if s.n_cols != x.data.shape[0]:
        raise ValueError(f"spmm dims disagree: {s.shape} @ {x.data.shape}")
    dtype = x.data.dtype
    out = _csr_times(s.to_scipy(dtype), x.data, ws)

    def bwd(g):
        _accum(x, _csr_times(s.transpose_scipy(dtype), g, ws), ws)

    return _compose(out, (x,), bwd)


def add(x, y, *, ws=None):
    if x.data.shape != y.data.shape:
        raise ValueError(f"add shapes disagree: {x.data.shape} vs {y.data.shape}")
    out = np.add(x.data, y.data, out=_buffer(ws, x.data.shape,
                                             np.result_type(x.data, y.data)))

    def bwd(g):
        _accum(x, g, ws)
        _accum(y, g, ws)

    return _compose(out, (x, y), bwd)


def scale(x, c, *, ws=None):
    c = float(c)
    out = np.multiply(x.data, c, out=_buffer(ws, x.data.shape, np.result_type(x.data, c)))

    def bwd(g):
        _accum(x, np.multiply(g, c, out=_buffer(ws, g.shape, np.result_type(g, c))), ws)

    return _compose(out, (x,), bwd)


def relu(x, *, ws=None):
    out = np.maximum(x.data, 0, out=_buffer(ws, x.data.shape, x.data.dtype))

    def bwd(g):
        # out > 0 exactly where x > 0
        mask = np.greater(out, 0, out=_buffer(ws, out.shape, bool))
        _accum(x, np.multiply(g, mask, out=_buffer(ws, g.shape, np.result_type(g, mask))), ws)

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
