"""Model structure: graph-conv layers, low-rank adapters, and the layer stack."""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import NumericalAbort


def identity_init(d, dtype=np.float32):
    return np.eye(d, dtype=dtype)


def _finite_real(v):
    """Whether ``v`` is a finite real number that is not a bool."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


def glorot_init(d_in, d_out, rng, dtype=np.float32):
    """Uniform(-a, a) with a = sqrt(6 / (d_in + d_out))."""
    rng = np.random.default_rng(rng)
    a = math.sqrt(6.0 / (d_in + d_out))
    return rng.uniform(-a, a, size=(d_in, d_out)).astype(dtype)


@dataclass(eq=False)
class LoraAdapter:
    """Low-rank delta W0 + (alpha/rank) * A @ B attached to a frozen weight."""

    A: Tensor
    B: Tensor
    rank: int
    alpha: float

    def __post_init__(self):
        d_in, r_a = self.A.data.shape
        r_b, d_out = self.B.data.shape
        if r_a != self.rank or r_b != self.rank:
            raise ValueError(f"adapter factors have rank {r_a}/{r_b}, declared {self.rank}")
        if not 1 <= self.rank <= min(d_in, d_out):
            raise ValueError(f"rank {self.rank} outside [1, min({d_in}, {d_out})]")
        if not _finite_real(self.alpha):
            raise ValueError(f"adapter alpha must be a finite number, not {self.alpha!r}")

    @property
    def scaling(self):
        return self.alpha / self.rank

    def delta(self, out=None):
        """(alpha/rank) * A @ B, into ``out`` when given: what ``GcnLayer.merge_adapter``
        adds to W0, and ``autodiff.gcn_layer`` to W0 for the layer's merged weight."""
        out = np.matmul(self.A.data, self.B.data, out=out)
        return np.multiply(out, float(self.scaling), out=out)


def make_adapter(d_in, d_out, rank, rng, dtype=np.float32):
    """Fresh adapter: A ~ N(0, 0.02^2), B = 0, so the initial delta is exactly zero;
    alpha = rank, so the scaling alpha/rank is 1 at every rank."""
    a = rng.normal(0.0, 0.02, size=(d_in, rank)).astype(dtype)
    b = np.zeros((rank, d_out), dtype=dtype)
    return LoraAdapter(Tensor(a, requires_grad=True), Tensor(b, requires_grad=True), rank,
                       alpha=float(rank))


# the values of GcnLayer.mode, which name a conv layer's state in a checkpoint
MODES = ("trainable", "frozen", "frozen_lora")


@dataclass(eq=False)
class GcnLayer:
    """A graph convolution's weight: trainable while ``W.requires_grad``, else frozen."""

    W: Tensor
    adapter: LoraAdapter | None = None

    def __post_init__(self):
        self.check()

    def check(self):
        if self.adapter is not None:
            if self.W.requires_grad:
                raise ValueError("a layer with an adapter must be frozen")
            d_in, d_out = self.W.data.shape
            if self.adapter.A.data.shape[0] != d_in or self.adapter.B.data.shape[1] != d_out:
                raise ValueError("adapter shape does not match weight")
        return self

    @property
    def mode(self):
        """The checkpoint's name for the layer's state."""
        if self.adapter is not None:
            return "frozen_lora"
        return "trainable" if self.W.requires_grad else "frozen"

    @property
    def d_in(self):
        return self.W.data.shape[0]

    @property
    def d_out(self):
        return self.W.data.shape[1]

    def freeze(self):
        self.W.requires_grad = False

    def attach_adapter(self, adapter):
        self.freeze()
        self.adapter = adapter
        return self.check()

    def merge_adapter(self):
        """Fold the adapter delta into W0 in place and drop the adapter."""
        if self.adapter is None:
            return
        w = self.W.data
        w += np.asarray(self.adapter.delta(), dtype=w.dtype)
        self.adapter = None


def pairnorm(h, s):
    """Center columns, then rescale so the Frobenius norm is s * sqrt(n).

    A zero matrix (after centering) maps to zero.
    """
    centered = h.data - h.data.mean(axis=0, keepdims=True)
    fro = float(np.sqrt((centered * centered).sum()))
    k = s * math.sqrt(h.data.shape[0]) / fro if fro else 0.0

    def bwd(g):
        if not fro:
            return ad._accum(h, np.zeros_like(h.data))
        # d/dH of k(H)*centered(H): project out the radial and column-mean parts
        gc = g * k - centered * (float((g * centered).sum()) * (k / (fro * fro)))
        ad._accum(h, gc - gc.mean(axis=0, keepdims=True))

    return ad._compose(centered * k if fro else np.zeros_like(h.data), (h,), bwd)


# A run of unused mask values this long costs about as much to skip with one
# ``advance`` (1.3-1.9 us) as to draw (4.5-4.7 ns a value, on one core of an
# Intel Xeon VM); shorter runs are drawn.
_MIN_SKIP = 1024
# the bit generators whose ``advance(k)`` skips exactly k float64 draws
_ADVANCEABLE = (np.random.PCG64, np.random.PCG64DXSM)
# ``prepare_features`` takes |X|'s row sums over blocks of this many entries
# (512 KB of float64), so its peak is its result plus one block
_ROW_SUM_ENTRIES = 2 ** 16


def _keep_mask(shape, p, training, rng, rows, n_rows, ws):
    """The bool mask of inverted dropout at rate ``p`` on ``shape``; None for none.

    With sorted ``rows`` of an ``n_rows``-row input, the mask is the full input's,
    ``rng.random((n_rows, d))[rows] >= p``, and the generator ends where the full
    draw leaves it; but runs of unused rows holding at least ``_MIN_SKIP`` values
    are skipped with ``bit_generator.advance``. The full draw stays when less than
    half of it could be skipped, for unsorted rows, a bit generator whose
    ``advance`` is not a count of doubles, or a pending buffered 32-bit value
    (which ``advance`` clears). Draws and mask go into buffers of ``ws`` if given.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout p={p} outside [0, 1)")
    if not training or p == 0.0:
        return None
    if rng is None:
        raise ValueError("training-mode dropout needs an rng")
    (n, d), bg, skip = shape, rng.bit_generator, None
    if rows is not None and len(rows) < n_rows:
        n = n_rows
        if 2 * (n - len(rows)) >= n and type(bg) in _ADVANCEABLE:
            ext = np.append(rows, n)
            gaps = np.diff(ext, prepend=-1) - 1  # unused rows before each row and the end
            skip = np.where(gaps * d >= _MIN_SKIP, gaps, 0)
    idx = rows if n > shape[0] else None  # the mask's rows in the draw
    if skip is None or 2 * skip.sum() < n or gaps.min() < -1 or bg.state["has_uint32"]:
        draw = rng.random((n, d), out=ad._take(ws, (n, d), np.float64))
    else:
        at = filled = 0  # the next row of the full draw, and of ``draw``
        draw = ad._take(ws, (n - int(skip.sum()), d), np.float64)
        for j in np.flatnonzero(skip):
            stop = filled + ext[j] - skip[j] - at
            rng.random(out=draw[filled:stop])
            bg.advance(int(skip[j]) * d)
            at, filled = ext[j], stop
        rng.random(out=draw[filled:])
        idx = rows - np.cumsum(skip[:-1])
    keep = np.greater_equal(draw, p, out=ad._take(ws, draw.shape, bool))
    ad._release(ws, draw)
    if idx is None:
        return keep
    out = np.take(keep, idx, axis=0, out=ad._take(ws, shape, bool),
                  mode="clip")  # the indices are in range; "raise" copies through a temporary
    ad._release(ws, keep)
    return out


def dropout(h, p, training, rng=None, rows=None, n_rows=None, ws=None):
    """Inverted dropout; identity when not training or p == 0. The node keeps the bool mask.

    With sorted ``rows``, ``h`` holds those rows of an ``n_rows``-row input, and
    each row's mask is the full input's (see ``_keep_mask``).
    """
    keep = _keep_mask(h.data.shape, p, training, rng, rows, n_rows, ws)
    if keep is None:
        return h
    scale = 1.0 / (1.0 - p)

    def bwd(g):
        ad._accum(h, ad._masked(g, keep, scale, ws))

    return ad._compose(ad._masked(h.data, keep, scale, ws), (h,), bwd)


def sgc_propagate(L, X, steps):
    """L^steps @ X computed hop by hop, one ``autodiff._csr_times`` each; no gradients."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    out = np.asarray(X)
    m = L.to_scipy(out.dtype)
    for _ in range(steps):
        out = ad._csr_times(m, out, None)
    return out


@dataclass(eq=False)
class LayerStack:
    """A depth-K model: conv layers, ``layers[0]`` reading the features, then a linear head.

    ``layers == []`` with ``sgc_steps >= 1`` is the parameter-free propagation
    baseline: features are propagated sgc_steps times, then the head applies.
    ``pairnorm_s`` None means no PairNorm.
    """

    layers: list = field(default_factory=list)
    head: Tensor = None
    dropout_p: float = 0.0
    pairnorm_s: float | None = None
    sgc_steps: int = 0
    row_normalize: bool = True

    def check(self):
        steps, p, s = self.sgc_steps, self.dropout_p, self.pairnorm_s
        if isinstance(steps, bool) or not isinstance(steps, numbers.Integral) or steps < 0:
            raise ValueError(f"sgc_steps {steps!r} is not a count")
        if bool(self.layers) == (steps > 0):
            raise ValueError("a stack has conv layers or propagation steps, not both")
        if not (_finite_real(p) and 0.0 <= p < 1.0):
            raise ValueError(f"dropout p={p!r} outside [0, 1)")
        if s is not None and not (_finite_real(s) and s > 0):
            raise ValueError(f"pairnorm scale {s!r} is not a positive number")
        if not isinstance(self.row_normalize, bool):
            raise ValueError(f"row_normalize {self.row_normalize!r} is not true or false")
        for i, layer in enumerate(self.layers):
            layer.check()
            if i > 0 and layer.d_in != self.layers[i - 1].d_out:
                raise ValueError(f"layer {i} input dim {layer.d_in} != previous output")
        if self.layers and self.layers[-1].d_out != self.head.data.shape[0]:
            raise ValueError("head input dim does not match last layer")
        return self

    @property
    def depth(self):
        return len(self.layers) or self.sgc_steps

    @property
    def in_dim(self):
        """Feature width the stack reads: layer 0's, else the head's."""
        return self.layers[0].d_in if self.layers else self.head.data.shape[0]

    def named_parameters(self):
        """(checkpoint name, tensor) for every weight, in the checkpoint's order:
        per conv layer ``layer{i}.W``, ``.A``, ``.B``; the head last."""
        out = []
        for i, layer in enumerate(self.layers):
            out.append((f"layer{i}.W", layer.W))
            if layer.adapter is not None:
                out += [(f"layer{i}.A", layer.adapter.A), (f"layer{i}.B", layer.adapter.B)]
        out.append(("head", self.head))
        return out

    def parameters(self):
        return [t for _, t in self.named_parameters()]

    def trainable_parameters(self):
        return [t for _, t in self.named_parameters() if t.requires_grad]


def prepare_features(stack, X):
    """``X`` as the stack reads it: row-normalised if it asks, in the head's dtype.

    Features already in that dtype and not normalised come back as they are;
    otherwise the cast or the division goes into one new array, in two row
    halves when ``autodiff.split_rows`` says so (each row is ``row_normalize``'s).
    """
    X, dtype = np.asarray(X), stack.head.data.dtype
    if not stack.row_normalize and X.dtype == dtype:
        return X
    n, f = X.shape
    if stack.row_normalize:  # row_normalize's divisors, then its quotients cast
        # |X| a block of rows at a time: each row's sum is reduced on its own
        b = max(1, _ROW_SUM_ENTRIES // max(f, 1))
        s = np.concatenate([np.abs(X[lo:lo + b]).sum(axis=1, keepdims=True)
                            for lo in range(0, max(n, 1), b)])
        s[s == 0] = 1.0

        def rows(lo, hi):
            np.divide(X[lo:hi], s[lo:hi], out=out[lo:hi], casting="unsafe")
    else:
        def rows(lo, hi):
            np.copyto(out[lo:hi], X[lo:hi], casting="unsafe")
    out = np.empty(X.shape, dtype)
    ad.run_rows(rows, n, ad.split_rows(n, f))
    return out


@dataclass(eq=False)
class ForwardPlan:
    """Constant work that ``stack_forward`` skips, and the rows it computes.

    The forward starts at ``stack.layers[start]`` from ``inp``, its
    propagated input ``L @ H``, valid while no dropout precedes ``start``;
    with ``start == len(stack.layers)`` ``inp`` is the head's input (e.g.
    ``L^K @ X`` when ``layers`` is empty), valid at any dropout. An ``inp``
    fixes its start layer's order as ``(L @ H) @ W``, where a plan-less forward
    of a narrowing layer forms ``L @ (H @ W)`` (see ``autodiff.gcn_layer``): the
    two agree up to rounding.
    ``C = inp @ W0`` for a start layer with an adapter goes to its
    ``autodiff.gcn_layer``, which forms ``C + (inp @ A) @ B * alpha/rank``.
    With a ``cone`` (a ``RowCone``), the layer k hops below the output
    multiplies by ``cone.op(k)``, ``inp`` and ``C`` hold the cone's rows,
    and the logits cover ``cone.rows(0)``; without ``inp`` it starts from
    the input's ``cone.rows(K)``, and dropout gives those rows the full
    forward's masks (see ``dropout``).
    """

    start: int = 0
    inp: np.ndarray | None = None
    C: np.ndarray | None = None
    cone: object = None


def stack_forward(stack, L, X, *, training=False, rng=None, return_hidden=False,
                  prepared=False, plan=None, ws=None):
    """The forward pass; returns logits (and per-layer features if asked).

    ``hidden[0]`` is the prepared input; ``hidden[k]`` is the output of
    ``layers[k - 1]`` (or of the k-th hop for a propagation-only stack). A ``plan``
    (see ``ForwardPlan``) skips the work below its start layer: then
    ``hidden`` lists the input, the outputs of the layers that ran, and a
    plan's ``inp`` that is the head's input, so ``hidden[-1]`` is always the
    head's input. Under a cone each entry holds only the rows computed. Each
    conv layer is one ``autodiff.gcn_layer`` node. With an ``autodiff.Workspace``
    ``ws``, the dropout masks, activations and gradients live in its buffers,
    which the next cycle through ``ws`` overwrites. Without ``return_hidden``, a
    conv layer's output goes back to ``ws`` as soon as the next conv layer or
    PairNorm has read it, neither of whose backwards reads it; the head's input
    stays, because the head's weight gradient reads it.
    """
    plan = ForwardPlan() if plan is None else plan
    layers = stack.layers
    cone = plan.cone
    if plan.inp is not None and plan.start < len(layers) and training and stack.dropout_p > 0:
        raise ValueError("a plan's input skips the dropout before its start layer")

    def op(k):  # the propagation k hops below the output
        return L if cone is None else cone.op(k)

    def rows(k):  # the rows a cone holds k hops below the output
        return None if cone is None else cone.rows(k)

    Xp = X if prepared else prepare_features(stack, X)
    if cone is not None and plan.inp is None:
        r = cone.rows(stack.depth)
        Xp = Xp if r.size == Xp.shape[0] else Xp[r]
    h = Tensor(Xp)
    hidden = [h.data]
    record = hidden.append if return_hidden else lambda a: None  # else outputs die with layers
    # hands a conv output back to ws once the op above has read it: no backward reads it
    done = (lambda a: None) if return_hidden else (lambda a: ad._release(ws, a))
    if plan.inp is None:
        for j in range(stack.sgc_steps):
            h = Tensor(sgc_propagate(op(stack.sgc_steps - 1 - j), h.data, 1))
            record(h.data)
    elif plan.start >= len(layers):
        h = Tensor(plan.inp)
        record(h.data)
    for i, layer in enumerate(layers[plan.start:], plan.start):
        k = len(layers) - 1 - i
        if i == plan.start and plan.inp is not None:
            h = ad.gcn_layer(None, Tensor(plan.inp), layer.W, layer.adapter, plan.C, ws=ws)
        else:
            keep = _keep_mask(h.data.shape, stack.dropout_p, training, rng, rows(k + 1),
                              L.n_rows, ws)
            x = h.data
            h = ad.gcn_layer(op(k), h, layer.W, layer.adapter, None, keep, stack.dropout_p, ws=ws)
            done(x)
        if stack.pairnorm_s is not None:
            x = h.data
            h = pairnorm(h, stack.pairnorm_s)
            done(x)
        record(h.data)
    logits = ad.matmul(dropout(h, stack.dropout_p, training, rng, rows(0), L.n_rows, ws),
                       stack.head, ws=ws)
    if return_hidden:
        return logits, hidden
    return logits


@np.errstate(over="ignore", invalid="ignore")
def eval_forward(stack, L, X, return_hidden=False, **kw):
    """``stack_forward`` with no autodiff graph; NumericalAbort, not warnings, on overflow."""
    with ad.no_grad():
        out = stack_forward(stack, L, X, return_hidden=return_hidden, **kw)
    if not np.isfinite((out[0] if return_hidden else out).data).all():
        raise NumericalAbort("non-finite logits in the evaluation forward")
    return out
