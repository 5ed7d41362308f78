"""Minimal reverse-mode autodiff over numpy arrays.

Only the operations the model needs exist, each with a hand-written backward
closure. The tape is a chain, as the model is: an op's ``_prev`` is its one
input with a ``_backward`` (two raise ValueError), and ``backward()`` walks these
links from the loss. Tensors with ``requires_grad=False`` get no gradient, which
makes frozen layers free of gradient traffic: a backward forms an input's
gradient only when that input requires grad.

Every gradient a backward hands on is a new array held by the receiving tensor
alone, and ``backward()`` keeps only the gradients of leaves. ``gcn_layer``, a
graph convolution in one node, applies a narrowing weight before it propagates,
any other after. It keeps for its backward the input the weight multiplied (the
propagated one, or the dropped one for a narrowing weight) and two bool masks,
the ReLU's and dropout's, and gives every other buffer, its
incoming gradient too, back to the workspace once read. Its backward never
reads its output, so the caller may release that once the op above has read it.
Ops write their results into a ``Workspace`` when given ``ws=``, else allocate.
Under ``no_grad()`` no op records a graph, so nothing outlives the op that made it.
"""

import contextlib

import numpy as np
import scipy.sparse as sp

from .errors import NumericalAbort


class Workspace:
    """Result buffers reused from one forward/backward cycle to the next.

    ``take`` hands out a free buffer of the shape and dtype, or a new one, taken
    until ``reset()`` unless an op ``release``s it once nothing reads it again.
    Free buffers go out last released first, so a cycle that repeats the last
    one's takes and releases gets the same arrays and allocates nothing, and
    overwrites them: reset only once nothing of the last graph is read again.
    """

    def __init__(self):
        self._buffers = {}
        self._free = {}
        self._ids = set()

    def __len__(self):
        return len(self._ids)

    def reset(self):
        self._free = {key: bufs[::-1] for key, bufs in self._buffers.items()}

    def take(self, shape, dtype):
        key = (tuple(shape), np.dtype(dtype))
        free = self._free.get(key)
        if free:
            return free.pop()
        buf = np.empty(key[0], key[1])
        self._buffers.setdefault(key, []).append(buf)
        self._ids.add(id(buf))
        return buf

    def release(self, *arrays):
        """Free taken buffers for later takes of this cycle; other arrays are ignored."""
        for a in arrays:
            if id(a) in self._ids:
                self._free.setdefault((a.shape, a.dtype), []).append(a)


def _buffer(ws, shape, dtype):
    """A workspace buffer for an op's result, or None (numpy allocates) without one."""
    return None if ws is None else ws.take(shape, dtype)


def _release(ws, *arrays):
    if ws is not None:
        ws.release(*arrays)


def _csr_matvecs_kernel():
    """scipy's CSR-times-dense kernel, which adds into an existing result, else None.

    It is private to scipy, so a probe checks its signature and result first.
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

    The buffer path runs the kernel ``m @ x`` runs, on a zeroed buffer: both round alike.
    """
    if ws is None or _CSR_MATVECS is None or x.shape[1] == 1 or m.dtype != x.dtype:
        return m @ x
    out = ws.take((m.shape[0], x.shape[1]), x.dtype)
    out.fill(0)
    _CSR_MATVECS(m.shape[0], m.shape[1], x.shape[1], m.indptr, m.indices, m.data,
                 x.ravel(), out.reshape(-1))
    return out


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_prev", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._prev = None
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        self.grad = np.ones_like(self.data)
        node = self
        while node is not None and node._backward is not None and node.grad is not None:
            g, node.grad = node.grad, None
            node._backward(g)  # read here: a tracer may have replaced it since the op ran
            node = node._prev

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Within, ops record no graph, so each frees what only its backward would read."""
    global _grad_enabled
    enabled, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = enabled


def _records(inputs):
    """Whether an op on ``inputs`` records a graph, so that its backward will run."""
    return _grad_enabled and any(x.requires_grad for x in inputs)


def _compose(data, inputs, backward):
    out = Tensor(data)
    if _records(inputs):
        prev = [x for x in inputs if x._backward is not None]
        if len(prev) > 1:
            raise ValueError("an op takes at most one computed input: the tape is a chain")
        out.requires_grad = True
        out._prev = prev[0] if prev else None
        out._backward = backward
    return out


def _accum(t, g):
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


def _matmul(a, b, ws):
    return np.matmul(a, b, out=_buffer(ws, a.shape[:-1] + b.shape[1:], np.result_type(a, b)))


def matmul(x, w, *, ws=None):
    if x.data.shape[-1] != w.data.shape[0]:
        raise ValueError(f"matmul inner dims disagree: {x.data.shape} @ {w.data.shape}")
    out = _matmul(x.data, w.data, ws)

    def bwd(g):
        if x.requires_grad:
            _accum(x, _matmul(g, w.data.T, ws))
        if w.requires_grad:
            _accum(w, _matmul(x.data.T, g, ws))

    return _compose(out, (x, w), bwd)


def spmm(s, x, *, ws=None):
    """Sparse CSR times dense: S @ X. The sparse side is a constant."""
    if s.n_cols != x.data.shape[0]:
        raise ValueError(f"spmm dims disagree: {s.shape} @ {x.data.shape}")
    dtype = x.data.dtype
    out = _csr_times(s.to_scipy(dtype), x.data, ws)

    def bwd(g):
        _accum(x, _csr_times(s.transpose_scipy(dtype), g, ws))

    return _compose(out, (x,), bwd)


def _masked(x, keep, scale, ws):
    """``x * (keep * scale)``: inverted dropout by a bool ``keep``, its float mask transient."""
    mask = np.multiply(keep, scale, dtype=x.dtype, out=_buffer(ws, x.shape, x.dtype))
    out = np.multiply(x, mask, out=_buffer(ws, x.shape, x.dtype))
    _release(ws, mask)
    return out


def gcn_layer(op, h, W, adapter=None, C=None, keep=None, p=0.0, *, ws=None):
    """One graph convolution as one node: ``relu(op @ dropout(h) @ W')``.

    ``W' = W + (alpha/rank)·A@B`` for an ``adapter``, else ``W``; ``keep`` is the bool
    dropout mask at rate ``p``, or None. With ``op`` None, ``h`` is the propagated
    input. A narrowing ``W'`` (more rows than columns) multiplies before the
    propagation, ``op @ (dropout(h) @ W')``, so the sparse product runs over the
    fewer columns; otherwise ``(op @ dropout(h)) @ W'``. The order reads shapes only,
    so a recorded and an unrecorded forward agree bitwise. ``C = h @ W``, formed once
    for an adapter and a constant propagated ``h`` (``op`` None), leaves
    ``C + (alpha/rank)·(h@A)@B`` per call. A node that records a graph keeps the
    input ``W'`` multiplies (the propagated one, or the dropped one when ``W'``
    narrows), ``keep`` and the bool ReLU mask ``out > 0`` (and ``h@A`` with ``C``),
    not its output; it forms every value with the kernels of the ops it replaces,
    in its order, so its results are theirs bitwise.
    """
    x, dtype, scale = h.data, h.data.dtype, 1.0 / (1.0 - p)
    if (op is not None and op.n_cols != x.shape[0]) or x.shape[1] != W.data.shape[0]:
        raise ValueError(f"gcn_layer dims disagree: {getattr(op, 'shape', None)} @ {x.shape} @ "
                         f"{W.data.shape}")
    if (C is not None and (adapter is None or h.requires_grad or op is not None)) or (
            keep is not None and op is None):
        raise ValueError("gcn_layer: C needs an adapter and a constant input, no op; dropout an op")
    narrow = op is not None and W.data.shape[0] > W.data.shape[1]
    if keep is not None:
        x = _masked(x, keep, scale, ws)
    xin = x  # the input W' multiplies
    if op is not None and not narrow:
        xin = _csr_times(op.to_scipy(dtype), x, ws)
        if keep is not None:
            _release(ws, x)
    weight = W.data
    if adapter is not None:
        A, B, s = adapter.A, adapter.B, float(adapter.scaling)
    if C is not None:
        P = _matmul(xin, A.data, ws)
        out = _matmul(P, B.data, ws)
        np.add(C, np.multiply(out, s, out=out), out=out)
    else:
        if adapter is not None:
            weight = _matmul(A.data, B.data, ws)
            np.add(W.data, np.multiply(weight, s, out=weight), out=weight)
        out = _matmul(xin, weight, ws)
    if narrow:
        xw, out = out, _csr_times(op.to_scipy(dtype), out, ws)
        _release(ws, xw)
    np.maximum(out, 0, out=out)
    inputs = (h, W) if adapter is None else (h, W, A, B)
    # where the product is positive: the backward reads this, and never ``out``
    relu = np.greater(out, 0, out=_buffer(ws, out.shape, bool)) if _records(inputs) else None

    def bwd(g):
        gz = np.multiply(g, relu, out=_buffer(ws, g.shape, np.result_type(g, relu)))
        _release(ws, relu, g)
        if narrow:  # back through the propagation first: gz becomes that of xin @ W'
            gz, done = _csr_times(op.transpose_scipy(dtype), gz, ws), gz
            _release(ws, done)
        gx = _matmul(gz, weight.T, ws) if h.requires_grad else None
        if C is not None:  # the gradient of (xin @ A) @ B at s * gz
            gP = _matmul(np.multiply(gz, s, out=gz), B.data.T, ws)
            _accum(B, _matmul(P.T, gz, ws))
            _accum(A, _matmul(xin.T, gP, ws))
            _release(ws, gP)
        elif adapter is not None:  # the gradient of A @ B at s * (xin.T @ gz)
            gAB = _matmul(xin.T, gz, ws)
            gAB *= s
            _accum(A, _matmul(gAB, B.data.T, ws))
            _accum(B, _matmul(A.data.T, gAB, ws))
            _release(ws, gAB)
        elif W.requires_grad:
            _accum(W, _matmul(xin.T, gz, ws))
        _release(ws, gz)
        if gx is not None and op is not None and not narrow:
            gx, done = _csr_times(op.transpose_scipy(dtype), gx, ws), gx
            _release(ws, done)
        if gx is not None and keep is not None:
            gx, done = _masked(gx, keep, scale, ws), gx
            _release(ws, done)
        if gx is not None:
            _accum(h, gx)

    return _compose(out, inputs, bwd)


def log_softmax_rows(x):
    z = x.data - x.data.max(axis=1, keepdims=True)
    out = z - np.log(np.exp(z).sum(axis=1, keepdims=True))

    def bwd(g):
        _accum(x, g - np.exp(out) * g.sum(axis=1, keepdims=True))

    return _compose(out, (x,), bwd)


def masked_cross_entropy(log_probs, labels, mask):
    """Negative log-likelihood of the true class, averaged over mask.

    ``mask`` holds row indices; a repeated index counts once per occurrence,
    in the loss and in its gradient.
    """
    idx = np.asarray(mask, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("empty mask")
    labels = np.asarray(labels, dtype=np.int64)
    denom = float(idx.size)
    picked = log_probs.data[idx, labels[idx]]
    out = np.asarray(-picked.sum() / denom, dtype=log_probs.data.dtype)

    def bwd(g):
        gi = np.zeros_like(log_probs.data)
        np.add.at(gi, (idx, labels[idx]), -float(g) / denom)
        _accum(log_probs, gi)

    return _compose(out, (log_probs,), bwd)


GRAD_CHECK_EPS = (1e-7, 1e-3)  # the finite-difference steps grad_check accepts


def grad_check(f, params, eps=1e-5):
    """Compare backward() against central differences, entry by entry.

    ``f`` must be a deterministic closure over ``params`` returning a scalar
    Tensor; params should be float64 for the comparison to be meaningful.
    Returns the maximum relative error over all entries.
    """
    lo, hi = GRAD_CHECK_EPS
    if not lo <= eps <= hi:
        raise ValueError(f"eps {eps} outside [{lo:g}, {hi:g}]")
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
