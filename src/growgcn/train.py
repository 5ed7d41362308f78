"""Training: configs, Adam, early stopping, and the one trainer, standard or staged."""

import json
import numbers
import time
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from . import layers as ly
from .autodiff import Tensor
from .errors import NumericalAbort
from .metrics import CollapseReport, collapse_from_hidden
from .sparse import normalized_laplacian

VARIANTS = ("gcn", "sgc", "gcn+pairnorm")
STAGED_VARIANTS = ("gcn", "gcn+pairnorm")  # the variants that staged training can grow
TRAINERS = ("standard", "lgt")

# per-trainer dropout defaults, applied when TrainConfig.dropout_p is None; the
# propagation-only baseline has a bare linear head and defaults to no dropout
DROPOUT_DEFAULTS = {"standard": 0.5, "lgt": 0.0}


@dataclass
class TrainConfig:
    depth: int = 2
    hidden_dim: int = 64
    lr: float = 0.01
    weight_decay: float = 5e-4
    dropout_p: float | None = None
    max_epochs: int = 500
    patience: int = 50
    lora_rank: int = 10
    seed: int = 0
    use_lora: bool = True
    new_layer_init: str = "identity"
    pairnorm_s: float = 1.0
    row_normalize_features: bool = True

    def validate(self):
        """Raise ValueError unless every field has its type and range.

        Counts must be integers, and rates and scales finite numbers.
        """
        for name, low in (("depth", 1), ("hidden_dim", 1), ("max_epochs", 1), ("patience", 1),
                          ("lora_rank", 1), ("seed", 0)):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < low:
                raise ValueError(f"{name} must be an integer >= {low}, not {v!r}")
        for name in ("lr", "weight_decay", "dropout_p", "pairnorm_s"):
            v = getattr(self, name)
            if not (ly._finite_real(v) or v is None and name == "dropout_p"):
                raise ValueError(f"{name} must be a finite number, not {v!r}")
        for name in ("use_lora", "row_normalize_features"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if self.dropout_p is not None and not 0.0 <= self.dropout_p < 1.0:
            raise ValueError("dropout_p outside [0, 1)")
        if self.patience > self.max_epochs:
            raise ValueError("patience must be in [1, max_epochs]")
        if self.pairnorm_s <= 0:
            raise ValueError("pairnorm_s must be positive")
        if self.new_layer_init not in ("identity", "glorot"):
            raise ValueError("new_layer_init must be 'identity' or 'glorot'")
        return self

    def resolved_dropout(self, trainer, variant="gcn"):
        if self.dropout_p is not None:
            return self.dropout_p
        return 0.0 if variant == "sgc" else DROPOUT_DEFAULTS[trainer]


def check_run(cfg, trainer, variant, f=None):
    """Raise ValueError unless ``train`` can run ``cfg`` with this trainer and variant.

    Given the feature width ``f``, also check a staged run's LoRA rank
    against min(f, hidden_dim): adapters attach to the f×d layer 0 too.
    """
    if trainer not in TRAINERS:
        raise ValueError(f"unknown trainer {trainer!r}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    staged = trainer == "lgt"
    if staged and variant not in STAGED_VARIANTS:
        raise ValueError(f"staged training (trainer lgt) supports the variants "
                         f"{', '.join(STAGED_VARIANTS)}, not {variant!r}")
    cfg.validate()
    if f is not None and staged and cfg.use_lora and cfg.depth > 1:
        max_rank = min(f, cfg.hidden_dim)
        if cfg.lora_rank > max_rank:
            raise ValueError(f"lora rank {cfg.lora_rank} exceeds min(feature dim, hidden dim)"
                             f" = {max_rank}")


def adam_step(param, grad, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8,
              weight_decay=0.0):
    """One Adam update with bias correction and decoupled weight decay, in place."""
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    mhat = m / (1.0 - beta1 ** t)
    vhat = v / (1.0 - beta2 ** t)
    param -= lr * (mhat / (np.sqrt(vhat) + eps) + weight_decay * param)


class Adam:
    """Adam over parameter groups; each group carries its own lr and weight decay.

    A group's tensors and their gradients share one dtype (another gradient dtype
    is a TypeError), and no tensor is in two groups. Each group lives in one flat
    buffer, so a step makes one finiteness check and one element-wise
    ``adam_step`` per group, bitwise the per-tensor update. Lifetime: from
    ``Adam(...)`` until someone rebinds it, a tensor's ``data`` is a view into its
    group's buffer; ``_fit``'s ``_restore`` rebinds them all, so no view outlives
    a stage.
    """

    def __init__(self, groups, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.groups, seen = [], set()
        for g in groups:
            params = list(g["params"])
            ids = {id(p) for p in params}
            if len(ids) < len(params) or ids & seen:
                raise ValueError("a tensor is listed twice in Adam's groups")
            if len({p.data.dtype for p in params}) > 1:
                raise ValueError("an Adam group mixes dtypes")
            seen |= ids
            flat = np.concatenate([p.data for p in params] or [np.empty(0)], axis=None)
            for p, end in zip(params, np.cumsum([p.data.size for p in params])):
                p.data = flat[end - p.data.size:end].reshape(p.data.shape)
            self.groups.append({"params": params, "lr": float(g["lr"]),
                                "weight_decay": float(g.get("weight_decay", 0.0)),
                                "flat": flat, "grad": np.empty_like(flat),
                                "m": np.zeros_like(flat), "v": np.zeros_like(flat)})

    def zero_grad(self):
        for g in self.groups:
            for p in g["params"]:
                p.grad = None

    def step(self):
        self.t += 1
        for g in self.groups:
            params = g["params"]
            with_grad = sum(p.grad is not None for p in params)
            if with_grad == 0:
                continue
            if with_grad < len(params):
                raise ValueError("some tensors of an Adam group have no gradient")
            np.concatenate([p.grad for p in params], axis=None, out=g["grad"], casting="no")
            if not np.isfinite(g["grad"]).all():
                bad = next(p for p in params if not np.isfinite(p.grad).all())
                raise NumericalAbort(f"non-finite gradient for parameter of shape "
                                     f"{bad.data.shape} at step {self.t}")
            adam_step(g["flat"], g["grad"], g["m"], g["v"], self.t, g["lr"],
                      self.beta1, self.beta2, self.eps, g["weight_decay"])


class EarlyStopper:
    """Stop after ``patience`` consecutive epochs without strict improvement."""

    def __init__(self, patience):
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.patience = patience
        self.best = -np.inf
        self.best_epoch = 0
        self.epoch = 0
        self.bad = 0

    def update(self, value):
        """Record one epoch's metric; returns True when training should stop."""
        self.epoch += 1
        if value > self.best:
            self.best = value
            self.best_epoch = self.epoch
            self.bad = 0
        else:
            self.bad += 1
        return self.bad >= self.patience


@dataclass
class StageReport:
    epochs_run: int
    best_val_acc: float
    train_loss: list
    wall_clock_seconds: float


@dataclass
class TrainReport:
    stages: list
    test_acc: float
    collapse: CollapseReport
    total_wall_clock: float

    @property
    def total_epochs(self):
        return sum(s.epochs_run for s in self.stages)

    def to_json(self, **kw):
        return json.dumps(asdict(self), **kw)


def _accuracy(logits, labels, idx):
    if idx.size == 0:
        raise ValueError("empty evaluation mask")
    pred = np.argmax(logits[idx], axis=1)
    return float((pred == labels[idx]).mean())


def evaluate(stack, data, mask):
    """Accuracy of the stack on the given node indices."""
    logits = ly.eval_forward(stack, normalized_laplacian(data.adjacency), data.X)
    return _accuracy(logits.data, data.labels, np.asarray(mask, dtype=np.int64))


def _target(data, rows=None):
    """``_fit``'s (labels, train_idx, val_idx) for logits on sorted ``rows`` (None: every
    node); the train and val nodes map to their positions in ``rows``."""
    splits = data.splits
    if rows is None:
        return data.labels, splits.train, splits.val
    return (data.labels[rows], np.searchsorted(rows, splits.train),
            np.searchsorted(rows, splits.val))


def _snapshot(tensors):
    return [t.data.copy() for t in tensors]


def _restore(tensors, snap):
    for t, s in zip(tensors, snap):
        t.data = s


def _fit(forward, mutable, groups, target, cfg, dropout_p):
    """Shared epoch loop: optimize, track val accuracy, restore the best weights.

    ``forward(training)`` builds the graph and returns logits, and ``target``
    is ``(labels, train_idx, val_idx)`` for their rows (see ``_target``).
    Each epoch ends with an eval forward on the updated weights for the val
    accuracy. At ``dropout_p == 0`` it computes the training graph, so it is
    the next epoch's, and a stage of E epochs runs E + 1 forwards, not 2E;
    otherwise it records no graph. Once the best val accuracy is 1.0, no
    later epoch can replace its snapshot, so the stage's last epoch stops
    after its loss: no backward, step or eval forward, and E (2E - 1)
    forwards. The report, the restored weights and the rng are unchanged.
    A graph is dropped before the next ``forward``, which may overwrite its
    arrays (the trainers' workspace does). ``Adam`` makes each tensor of
    ``groups`` a view into its group's buffer; ``_restore`` rebinds every
    tensor of ``mutable`` (the groups' tensors) to its snapshot's own array, so
    none is a view after the stage. Returns a StageReport.
    """
    adam = Adam(groups)
    stopper = EarlyStopper(cfg.patience)
    curve = []
    labels, train_idx, val_idx = target
    logits = None
    for _ in range(cfg.max_epochs):
        if logits is None:
            logits = forward(True)
        loss = ad.masked_cross_entropy(ad.log_softmax_rows(logits), labels, train_idx)
        if not np.isfinite(loss.data):
            raise NumericalAbort(f"non-finite training loss at epoch {len(curve) + 1}")
        if stopper.best == 1.0 and (len(curve) + 1 == cfg.max_epochs
                                    or stopper.bad + 1 >= stopper.patience):
            curve.append(float(loss.data))  # the last epoch cannot beat the snapshot
            break
        adam.zero_grad()
        loss.backward()
        adam.step()
        curve.append(float(loss.data))
        loss = logits = None  # arrays of the graph's own, such as PairNorm's, go first
        if dropout_p > 0.0:  # the next epoch draws its masks in a training forward
            with ad.no_grad():
                val_acc = _accuracy(forward(False).data, labels, val_idx)
        else:
            logits = forward(False)
            val_acc = _accuracy(logits.data, labels, val_idx)
        if val_acc > stopper.best:  # always on the first epoch: best starts at -inf
            best_snap = _snapshot(mutable)
        if stopper.update(val_acc):
            break
    _restore(mutable, best_snap)
    adam.zero_grad()  # the last gradients may sit in buffers that later forwards reuse
    return StageReport(
        epochs_run=len(curve),
        best_val_acc=float(stopper.best),
        train_loss=curve,
        wall_clock_seconds=0.0,
    )


def _build_stack(data, cfg, variant, rng, dropout_p, depth):
    """A freshly initialised depth-``depth`` stack; draws layer 0 first, the head last."""
    widths = [data.f] + ([] if variant == "sgc" else [cfg.hidden_dim] * depth)
    return ly.LayerStack(
        layers=[ly.GcnLayer(Tensor(ly.glorot_init(a, b, rng, np.float32), requires_grad=True))
                for a, b in zip(widths, widths[1:])],
        head=Tensor(ly.glorot_init(widths[-1], data.C, rng, np.float32), requires_grad=True),
        dropout_p=dropout_p,
        pairnorm_s=cfg.pairnorm_s if variant == "gcn+pairnorm" else None,
        sgc_steps=depth if variant == "sgc" else 0,
        row_normalize=cfg.row_normalize_features,
    ).check()


class RowCone:
    """The rows each layer must compute so the top layer's output is exact on some rows.

    ``rows(0)`` is the sorted set the loss and the metric read, and
    ``rows(j + 1)`` every column that ``L`` stores on ``rows(j)``: the layer
    j hops below the output computes ``rows(j)`` from ``rows(j + 1)`` through
    ``op(j) = L[rows(j)][:, rows(j + 1)]`` (``L`` once both are every node).
    The sets grow (L has self-loops) for at most ``hops`` hops, up to every
    node or a closed set. This is Cluster-GCN's computation subgraph without
    sampling: the forward is exact on ``rows(0)``, and the backward reaches
    only rows whose gradient is not zero.
    """

    def __init__(self, L, rows, hops):
        self._rows = [np.asarray(rows, dtype=np.int64)]
        self._ops = []
        row_sizes = np.diff(L.row_offsets)
        while len(self._ops) < hops:
            r = self._rows[-1]
            in_r = np.zeros(L.n_rows, dtype=bool)
            in_r[r] = True
            reached = np.zeros(L.n_cols, dtype=bool)
            reached[L.col_indices[np.repeat(in_r, row_sizes)]] = True
            nxt = np.flatnonzero(reached)
            if nxt.size < L.n_cols:
                op = L.submatrix(r, nxt)
            else:
                op = L if r.size == L.n_rows else L.submatrix(r)
            self._ops.append(op)
            self._rows.append(nxt)
            if np.array_equal(nxt, r):
                break

    def rows(self, j):
        return self._rows[min(j, len(self._rows) - 1)]

    def op(self, j):
        return self._ops[min(j, len(self._ops) - 1)]


def _row_cone(stack, L, data, hops):
    """The ``RowCone`` of the train and val rows, or None for PairNorm, which centres over
    every row. Dropout keeps the cone: it gives the cone's rows their full-input masks."""
    if stack.pairnorm_s is not None:
        return None
    return RowCone(L, np.union1d(data.splits.train, data.splits.val), hops)


def _stage_plan(stack, L, LX, cone):
    """The ``ForwardPlan`` of one stage; None under dropout without a cone.

    ``LX`` is formed once per call: ``L^K @ Xp`` for the propagation-only
    stack, whose plan starts at the head from it at any dropout, else
    ``L @ Xp``, which a conv stack reads only at dropout 0. Then its plan
    starts at the first layer that trains or has an adapter, from its input
    ``L @ H`` formed here once per stage (the leading frozen layers give the
    same features all stage), plus ``C`` for an adapter.
    Dropout redraws its masks before every layer, so then the plan holds
    only the ``cone``, which restricts the plan's constants and forward to
    its rows (not for PairNorm, which centres over every row).
    """
    if cone is not None and stack.pairnorm_s is not None:
        raise ValueError("a row cone cannot restrict a stack with PairNorm")
    if stack.sgc_steps:
        return ly.ForwardPlan(inp=LX if cone is None else LX[cone.rows(0)], cone=cone)
    if stack.dropout_p > 0.0:
        return None if cone is None else ly.ForwardPlan(cone=cone)
    layers = stack.layers
    inp, start = LX, 0
    while (start < len(layers) - 1 and not layers[start].W.requires_grad
           and layers[start].adapter is None):
        h = ad.gcn_layer(None, Tensor(inp), layers[start].W)
        if stack.pairnorm_s is not None:
            h = ly.pairnorm(h, stack.pairnorm_s)
        inp = ly.sgc_propagate(L, h.data, 1)
        start += 1
    if cone is not None:
        # the layer k hops below the output writes cone.rows(k)
        rows = cone.rows(len(layers) - 1 - start)
        inp = inp if rows.size == inp.shape[0] else inp[rows]
    layer = layers[start]
    C = None if layer.adapter is None else inp @ layer.W.data
    return ly.ForwardPlan(start, inp, C, cone)


@np.errstate(over="ignore", invalid="ignore")  # the loss and Adam report non-finite values
def train(data, cfg, trainer="standard", variant="gcn", on_stage_start=None,
          on_stage_end=None):
    """Train a model; returns (stack, report).

    ``standard`` trains the whole depth-K model jointly in one stage.
    ``lgt`` grows the network one layer per stage: stage 1 is the standard
    model at depth 1, and every later stage appends a new layer
    (identity-initialized by default), attaches fresh low-rank adapters to
    all frozen layers, and trains only the new layer, the head, and the
    adapters, all at cfg.lr (the adapters without weight decay). At stage
    end the adapters are folded into their frozen weights and the new
    layer is frozen. Each stage stops early on val accuracy and restores
    its best weights.

    Each stage runs ``stack_forward`` with the plan of ``_stage_plan``, which
    skips constant work and (without PairNorm) the rows outside the train and
    val nodes' ``RowCone``: the results equal the full forward's up to rounding.
    Every epoch reuses the buffers of one workspace per call. The final test
    accuracy and collapse report come from one full ``eval_forward``: for a conv
    stack ``evaluate``'s plan-less one, and for SGC one from its head input ``L^K @ Xp``.

    Callbacks, both optional, fire inside each stage: ``on_stage_start(stage,
    stack, L, Xp)`` after growth but before any optimizer step, and
    ``on_stage_end(stage, stack)`` after best-weight restore but before
    merging. The final depth equals cfg.depth.
    """
    check_run(cfg, trainer, variant, data.f)
    staged = trainer == "lgt"
    rng = np.random.default_rng(cfg.seed)
    L = normalized_laplacian(data.adjacency)
    d, dtype = cfg.hidden_dim, np.float32
    stack = _build_stack(data, cfg, variant, rng, cfg.resolved_dropout(trainer, variant),
                         1 if staged else cfg.depth)
    Xp = ly.prepare_features(stack, data.X)
    # L^K @ Xp for the propagation-only stack; a conv stack's every stage starts from
    # the same L @ Xp while no dropout precedes layer 0
    LX = (ly.sgc_propagate(L, Xp, cfg.depth if stack.sgc_steps else 1)
          if stack.sgc_steps or stack.dropout_p == 0.0 else None)
    cone = _row_cone(stack, L, data, 0 if stack.sgc_steps else cfg.depth)
    target = _target(data, None if cone is None else cone.rows(0))

    stages = []
    ws = ad.Workspace()
    t_total = time.perf_counter()
    for stage_idx in range(1, (cfg.depth if staged else 1) + 1):
        if stage_idx > 1:
            w = (ly.identity_init(d, dtype) if cfg.new_layer_init == "identity"
                 else ly.glorot_init(d, d, rng, dtype))
            stack.layers.append(ly.GcnLayer(Tensor(w, requires_grad=True)))
            if cfg.use_lora:
                for layer in stack.layers[:-1]:
                    layer.attach_adapter(ly.make_adapter(
                        layer.d_in, layer.d_out, cfg.lora_rank, rng, dtype))
            stack.check()

        if on_stage_start is not None:
            on_stage_start(stage_idx, stack, L, Xp)

        layers = stack.layers
        main = [layer.W for layer in layers if layer.W.requires_grad] + [stack.head]
        adapters = [p for layer in layers if layer.adapter is not None
                    for p in (layer.adapter.A, layer.adapter.B)]
        groups = [{"params": main, "lr": cfg.lr, "weight_decay": cfg.weight_decay}]
        if adapters:
            groups.append({"params": adapters, "lr": cfg.lr, "weight_decay": 0.0})

        plan = None  # the last stage's constants go before this stage's are formed
        plan = _stage_plan(stack, L, LX, cone)

        def forward(training):
            ws.reset()
            return ly.stack_forward(stack, L, Xp, training=training, rng=rng, prepared=True,
                                    plan=plan, ws=ws)

        t0 = time.perf_counter()
        stage = _fit(forward, main + adapters, groups, target, cfg, stack.dropout_p)
        stage.wall_clock_seconds = time.perf_counter() - t0
        stages.append(stage)

        if on_stage_end is not None:
            on_stage_end(stage_idx, stack)

        if staged:
            for layer in layers[:-1]:
                layer.merge_adapter()
            layers[-1].freeze()

    total = time.perf_counter() - t_total
    del ws  # free the buffers before the final forward
    # the report reads hidden[-1], the head's input, bitwise as evaluate and collapse_report
    # do: a conv stack's forward is theirs, plan-less, and SGC's starts from L^K @ Xp
    plan, LX = (ly.ForwardPlan(inp=LX) if stack.sgc_steps else None), None
    logits, hidden = ly.eval_forward(stack, L, Xp, return_hidden=True, prepared=True, plan=plan)
    # the other layers' outputs and the inputs go before the report's transients
    hidden, Xp, plan = hidden[-1:], None, None
    return stack, TrainReport(
        stages=stages,
        test_acc=_accuracy(logits.data, data.labels, data.splits.test),
        collapse=collapse_from_hidden(hidden, data.adjacency),
        total_wall_clock=total,
    )
