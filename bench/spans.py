"""Spans around the public functions of growgcn, recorded from outside the package.

``Tracer.install()`` replaces every public function of the traced modules,
plus a few public methods, with a wrapper that records a span: name, start,
end, parent span and run id. Autodiff ops (and the two single-node layer ops)
also get their returned node's ``_backward`` closure wrapped, so forward and
backward time separate. Private helpers are never wrapped, so refactors of
them leave the trace intact. Spans stay in memory until ``save``;
``uninstall`` restores every original object.
"""

import functools
import inspect
import sys
import time

import numpy as np

PACKAGE = "growgcn"
MODULES = ("autodiff", "layers", "train", "sparse", "metrics", "checkpoint", "data")
# (module, class, method, span name)
METHODS = (
    ("autodiff", "Tensor", "backward", "autodiff.backward"),
    ("train", "Adam", "step", "train.Adam.step"),
    ("layers", "LoraAdapter", "delta", "layers.lora_delta"),
    ("layers", "GcnLayer", "merge_adapter", "layers.merge_adapter"),
)
# functions that build exactly one tape node from ad._compose
NODE_OPS = {"layers.pairnorm", "layers.dropout"}


def _flops(name, args):
    """(forward FLOPs, backward FLOPs computed, backward FLOPs kept) of one op call."""
    if name == "autodiff.spmm":
        s, x = args
        f = 2 * s.nnz * x.data.shape[1]
        return f, f, f
    if name == "autodiff.matmul":
        x, w = args
        m, k = x.data.shape
        f = 2 * m * k * w.data.shape[1]
        # backward always forms both g @ W.T and X.T @ g; only inputs that
        # require grad keep theirs
        return f, 2 * f, f * (int(x.requires_grad) + int(w.requires_grad))
    return 0, 0, 0


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id, self.start, self.end, self.parent, self.run = [], [], [], [], []
        self.flop, self.useful = [], []
        self.run_id = -1
        self._open = []
        self._patched = []
        self.stages = []  # (run id, stage, span index, trainable parameter count)
        self.stored = {}  # id(SparseMatrix) -> (matrix, {id: scipy matrix it handed out})

    # --- recording -------------------------------------------------------
    def begin(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.run.append(self.run_id)
        self.flop.append(0)
        self.useful.append(0)
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(time.perf_counter())
        return i

    def finish(self, i):
        self.end[i] = time.perf_counter()
        self._open.pop()

    def new_run(self, label):
        """Start a top-level span for one call the benchmark makes; returns its index."""
        self.run_id += 1
        return self.begin(f"run.{label}")

    def end_run(self, i):
        """Close a run span, and any span an exception left open inside it."""
        self.end[i] = time.perf_counter()
        for j in self._open[self._open.index(i) + 1:]:
            self.end[j] = self.end[i]
        del self._open[self._open.index(i):]

    def _wrap(self, name, fn, node_op=False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.finish(i)
            if node_op and getattr(out, "_backward", None) is not None \
                    and all(out is not a for a in args):
                f, bwd_f, bwd_kept = _flops(name, args)
                tracer.flop[i] = f
                out._backward = tracer._wrap_backward(name + ".bwd", out._backward,
                                                      bwd_f, bwd_kept)
            return out

        return traced

    def _wrap_backward(self, name, closure, flop, useful):
        tracer = self

        def traced(g):
            i = tracer.begin(name)
            try:
                closure(g)
            finally:
                tracer.finish(i)
            tracer.flop[i] = flop
            tracer.useful[i] = useful

        return traced

    def _record_stored(self, fn):
        tracer = self

        @functools.wraps(fn)
        def recorded(mat, *args, **kwargs):
            out = fn(mat, *args, **kwargs)
            tracer.stored.setdefault(id(mat), (mat, {}))[1][id(out)] = out
            return out

        return recorded

    def stored_bytes(self):
        """Largest footprint of one SparseMatrix: its CSR arrays plus the scipy copies it made."""
        best = 0
        for mat, made in self.stored.values():
            n = mat.row_offsets.nbytes + mat.col_indices.nbytes + mat.values.nbytes
            n += sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes for m in made.values())
            best = max(best, n)
        return best

    def on_stage_start(self, stage, stack, L, Xp):
        n = sum(p.data.size for p in stack.trainable_parameters())
        self.stages.append((self.run_id, stage, self.begin("train.stage"), n))

    def on_stage_end(self, stage, stack):
        self.finish(self.stages[-1][2])

    # --- patching --------------------------------------------------------
    def _modules(self):
        return {name: sys.modules[f"{PACKAGE}.{name}"] for name in MODULES}

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        mods = self._modules()
        originals = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    name = f"{short}.{attr}"
                    node_op = short == "autodiff" or name in NODE_OPS
                    originals[id(obj)] = (obj, self._wrap(name, obj, node_op))
        # rebind every name in the package that refers to a wrapped function,
        # including `from .x import f` copies and the package's re-exports
        pkg_mods = [m for k, m in list(sys.modules.items())
                    if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for mod in pkg_mods:
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
        for short, cls_name, meth, name in METHODS:
            cls = getattr(mods[short], cls_name)
            self._set(cls, meth, self._wrap(name, vars(cls)[meth]))
        cls = mods["sparse"].SparseMatrix
        for meth in ("to_scipy", "transpose_scipy"):
            self._set(cls, meth, self._record_stored(vars(cls)[meth]))

    def uninstall(self):
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    # --- analysis --------------------------------------------------------
    def arrays(self):
        """Spans as numpy arrays, with duration and self time (duration minus children)."""
        a = {
            "name_id": np.asarray(self.name_id, dtype=np.int64),
            "start": np.asarray(self.start),
            "end": np.asarray(self.end),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "run": np.asarray(self.run, dtype=np.int64),
            "flop": np.asarray(self.flop, dtype=np.float64),
            "useful": np.asarray(self.useful, dtype=np.float64),
        }
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has = a["parent"] >= 0
        np.add.at(child, a["parent"][has], dur[has])
        a["dur"] = dur
        a["self"] = dur - child
        return a

    def save(self, path):
        a = self.arrays()
        np.savez_compressed(path, names=np.asarray(self.names), **a)
