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
the ReLU's and dropout's, and gives every other buffer, its incoming gradient
too, back to the workspace once read. Its backward never reads its output, so
the caller may release that once the op above has read it. Ops write their
results into a ``Workspace`` when given ``ws=``, else allocate. Under
``no_grad()`` no op records a graph, so nothing outlives the op that made it.

Every sparse-times-dense product runs through one CSR row kernel, ``_csr_rows``.
``spmm`` is the op that the tests and the benchmark's tracer call; no model
forward builds one (SGC's hops go through ``layers.sgc_propagate``).

A ``gcn_layer`` forward is one row-range step (the op's CSR rows, the dense
product on those rows, ReLU) written into buffers the calling thread takes. A
forward that records no graph runs the step as two row halves, the second on
one persistent thread, when the layer is large (``SPLIT_MIN_ENTRIES``)
and numpy's BLAS leaves a core idle (``split_rows``); every other forward runs
it once over all rows. Each output row is formed by the same kernels either way,
so the halves give the whole step's values bitwise.
"""

import contextlib
import contextvars
import ctypes
import multiprocessing
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from pathlib import Path

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


def _take(ws, shape, dtype):
    """A workspace buffer for an op's result, or a new array without one."""
    return np.empty(shape, dtype) if ws is None else ws.take(shape, dtype)


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
    """``m @ x`` for a scipy CSR ``m`` and a dense 2-D ``x``, into a buffer of ``ws`` when
    given: ``_csr_rows`` over every row."""
    out = _take(ws, (m.shape[0], x.shape[1]), np.result_type(m.dtype, x))
    _csr_rows(m, x, out, 0, m.shape[0])
    return out


def _by_rows(m, x):
    """Whether ``m @ x`` runs the CSR kernel on a row range (else scipy's own product)."""
    return (_CSR_MATVECS is not None and x.shape[1] > 1 and m.dtype == x.dtype
            and x.flags.c_contiguous)


def _csr_rows(m, x, out, lo, hi):
    """Rows ``lo:hi`` of ``m @ x`` into ``out[lo:hi]``, rounding as ``m @ x`` does.

    The kernel reads the rows' slice of ``m.indptr``, whose offsets index the
    whole ``indices`` and ``data``; without it the product is formed whole.
    """
    if not _by_rows(m, x):
        out[...] = m @ x
        return
    o = out[lo:hi]
    o.fill(0)
    _CSR_MATVECS(hi - lo, m.shape[1], x.shape[1], m.indptr[lo:hi + 1], m.indices, m.data,
                 x.reshape(-1), o.reshape(-1))


def _openblas():
    """numpy's bundled OpenBLAS's ``(get_num_threads, get_config)``, or None when not found."""
    for lib_path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError:
            continue
        for suffix in ("64_", ""):
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if get is not None and config is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                config.restype, config.argtypes = ctypes.c_char_p, []
                return get, config
    return None


_OPENBLAS = _openblas()


def blas_info():
    """``{"blas": build, "blas_threads": count}`` of numpy's OpenBLAS now, None each when
    its getter is not found. The build string names the version and the CPU kernel set."""
    if _OPENBLAS is None:
        return {"blas": None, "blas_threads": None}
    get, config = _OPENBLAS
    return {"blas": config().decode(errors="replace").strip(), "blas_threads": int(get())}


def _cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


# An unrecorded conv layer splits its rows in two when its output has at least this
# many entries (rows x d_out). One 64-wide layer at one BLAS thread on 2 cores of an
# Intel Xeon VM, called back to back (medians of 300), ran split 1.18x faster at 400
# rows (2^14.6 entries), 1.4x at 2^16 and 1.6-1.8x from 2^17 to 10,000 rows. The
# margin leaves room for a busy second core, and keeps a 400-node graph's layers whole.
SPLIT_MIN_ENTRIES = 2 ** 17
# Row halves of a dense product round as the whole product does only when it has
# enough output columns: OpenBLAS's sgemm gave other last bits on halves of products
# with 8 or fewer, and the same ones with 10 or more. A layer whose narrowest product
# has fewer columns than this stays whole. This was measured on one kernel set only
# (SkylakeX, OpenBLAS 0.3.31); ``TestRowSplitOracle`` is the check on any other.
_SPLIT_MIN_COLS = 16


def split_rows(n, d):
    """Whether an unrecorded step that writes ``n`` rows of ``d`` entries runs as two
    row halves: a large step, while numpy's BLAS runs on at most half of this
    process's CPUs, in a process that no multiprocessing pool started.

    A BLAS product that already runs on two threads would share its cores with the
    halves, so the split waits for one BLAS thread on two CPUs, and an unknown
    thread count (no getter found) keeps the step whole. A pool's worker (``sweep
    --workers k``) shares the CPUs it sees with its k - 1 siblings, so it keeps its
    steps whole too.
    """
    return (n * d >= SPLIT_MIN_ENTRIES and _OPENBLAS is not None
            and multiprocessing.parent_process() is None and _cpus() >= 2 * _OPENBLAS[0]())


# The thread that runs the second row half of a split step, started at the first
# split. It runs only steps that write into arrays the calling thread took, so its
# own malloc arena stays empty. The lock: one split at a time.
_pool, _pool_lock = None, threading.Lock()


def _forget_pool():
    """In a forked child: the parent's thread did not survive the fork, so the next
    split starts a new one (and a lock the fork caught held is let go)."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def run_rows(step, n, split):
    """``step(lo, hi)`` over rows ``0:n``: with ``split``, as two halves, the second on
    the pool's thread under this thread's context (``np.errstate`` too) while this
    thread runs the first. Returns once both are done; re-raises the second's error.
    While another thread's split holds the pool, the step runs whole."""
    if not (split and _pool_lock.acquire(blocking=False)):
        step(0, n)
        return
    global _pool
    try:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="growgcn-rows")
        mid = n // 2
        half = _pool.submit(contextvars.copy_context().run, step, mid, n)
        try:
            step(0, mid)
        finally:
            try:
                half.result()
            except BaseException:
                # an interrupted wait (Ctrl-C) leaves the half writing into the step's
                # arrays: it finishes before they, or the pool, are used again
                wait([half])
                raise
    finally:
        _pool_lock.release()


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
    return np.matmul(a, b, out=_take(ws, a.shape[:-1] + b.shape[1:], np.result_type(a, b)))


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
    mask = np.multiply(keep, scale, dtype=x.dtype, out=_take(ws, x.shape, x.dtype))
    out = np.multiply(x, mask, out=_take(ws, x.shape, x.dtype))
    _release(ws, mask)
    return out


def gcn_layer(op, h, W, adapter=None, C=None, keep=None, p=0.0, *, ws=None):
    """One graph convolution as one node: ``relu(op @ dropout(h) @ W')``.

    ``W' = W + adapter.delta()`` for an ``adapter``, else ``W``; ``keep`` is the bool
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

    The forward is one step over a range of output rows: the op's CSR rows (its
    ``indptr`` slice), the dense product on those rows, ReLU, written into buffers
    this thread takes (a narrowing ``W'`` first multiplies the input's rows, all of
    which every output row reads). An unrecorded node runs it as two row halves,
    the second on the pool's thread, when ``split_rows`` says so for its output and
    its narrowest dense product has at least ``_SPLIT_MIN_COLS`` columns; a
    recorded one, and any other, runs it once over all rows. Dropout's mask and an
    adapter's ``W'`` are formed whole first; the backward runs whole.
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
    m = None if op is None else op.to_scipy(dtype)
    # the input W' multiplies
    xin = x if m is None or narrow else _take(ws, (m.shape[0], x.shape[1]), dtype)
    weight = W.data
    if adapter is not None:
        A, B, s = adapter.A, adapter.B, float(adapter.scaling)
        if C is None:
            weight = adapter.delta(out=_take(ws, (A.data.shape[0], B.data.shape[1]),
                                             np.result_type(A.data, B.data)))
            np.add(W.data, weight, out=weight)
    if C is not None:
        P = _take(ws, (xin.shape[0], A.data.shape[1]), np.result_type(xin, A.data))
        out = _take(ws, (xin.shape[0], B.data.shape[1]), np.result_type(P, B.data))
    elif narrow:
        xw = _take(ws, (x.shape[0], weight.shape[1]), np.result_type(x, weight))
        out = _take(ws, (m.shape[0], xw.shape[1]), np.result_type(m.dtype, xw))
    else:
        out = _take(ws, (xin.shape[0], weight.shape[1]), np.result_type(xin, weight))
    inputs = (h, W) if adapter is None else (h, W, A, B)
    records = _records(inputs)

    def rows(lo, hi):  # output rows lo:hi, from their propagation through ReLU
        o = out[lo:hi]
        if narrow:
            _csr_rows(m, xw, out, lo, hi)
        else:
            if m is not None:
                _csr_rows(m, x, xin, lo, hi)
            if C is not None:
                np.matmul(np.matmul(xin[lo:hi], A.data, out=P[lo:hi]), B.data, out=o)
                np.add(C[lo:hi], np.multiply(o, s, out=o), out=o)
            else:
                np.matmul(xin[lo:hi], weight, out=o)
        np.maximum(o, 0, out=o)

    cols = out.shape[1] if C is None else min(out.shape[1], P.shape[1])  # narrowest product
    split = (not records and cols >= _SPLIT_MIN_COLS
             and (m is None or _by_rows(m, xw if narrow else x)) and split_rows(*out.shape))
    if narrow:  # W' first, over the input's rows: every output row reads all of them
        run_rows(lambda lo, hi: np.matmul(x[lo:hi], weight, out=xw[lo:hi]), x.shape[0], split)
    run_rows(rows, out.shape[0], split)
    if narrow:
        _release(ws, xw)
    elif keep is not None:  # the dropped input, once propagated
        _release(ws, x)
    # where the product is positive: the backward reads this, and never ``out``
    relu = np.greater(out, 0, out=_take(ws, out.shape, bool)) if records else None

    def bwd(g):
        gz = np.multiply(g, relu, out=_take(ws, g.shape, np.result_type(g, relu)))
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
