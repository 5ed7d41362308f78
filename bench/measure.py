"""The measuring process: load one bundle, make a workload's calls, write what happened.

It goes through growgcn's public API only (load_bundle, train, save_checkpoint,
load_checkpoint, evaluate). ``run.py`` starts it with the BLAS thread count
pinned and ``src`` on PYTHONPATH; it is not meant to be run by hand.

    measure.py --setup-only --bundle DIR --t0 T
        prints the seconds from T (time.monotonic() in the parent, taken just
        before this process started) until load_bundle has returned.
    measure.py --workload W --seed N --bundle DIR --t0 T --seconds S --trace 0|1 --out FILE
        untraced: repeats rounds of the workload's calls for S seconds.
        traced: two untraced rounds, then one round under the tracer.
        An untraced run also samples the reference kernel (reference.py)
        between calls and at stage starts inside the staged call, its time not
        counted; ``run.py`` uses the samples to cancel the machine's speed drift.
"""

import argparse
import json
import math
import os
import resource
import sys
import time

import numpy as np
import scipy

import growgcn as gg

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import layer_metrics  # noqa: E402
from reference import Reference, Sampler  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

INFER_BATCH = 4  # inference calls after the staged call and after each baseline
REF_WARMUP = 3  # untimed reference samples before the first round
MB = 2.0 ** 20


def make_config(model, call, seed):
    kw = {k: v for k, v in call.items() if k not in ("variant", "fixed")}
    cfg = gg.TrainConfig(**model, **kw, seed=seed)
    if call.get("fixed"):
        cfg.patience = cfg.max_epochs  # early stopping never fires: a fixed epoch count
    return cfg


def _finite_losses(report):
    return all(math.isfinite(v) for s in report.stages for v in s.train_loss)


class Round:
    """One pass over a workload's calls; each call becomes one record."""

    def __init__(self, spec, data, seed, workdir, tracer=None, sampler=None):
        self.spec, self.data, self.seed, self.workdir = spec, data, seed, workdir
        self.tracer, self.sampler = tracer, sampler
        self.records = []
        self._ref_inside_s = 0.0  # reference time spent inside the current call

    def _ref_in_call(self, *_):
        """on_stage_start of the staged call: a reference sample if one is due."""
        self._ref_inside_s += self.sampler.due()

    def _call(self, kind, fn, *args, **kwargs):
        rec = {"kind": kind, "ok": False}
        if self.sampler is not None:
            self.sampler.due()
        self._ref_inside_s = 0.0
        if self.tracer is not None:
            rec["run"] = self.tracer.run_id + 1
            span = self.tracer.new_run(kind)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as e:  # a failing call is counted, and the other calls still run
            rec["error"] = f"{type(e).__name__}: {e}"
            out = None
        t1 = time.perf_counter()
        rec["seconds"] = t1 - t0 - self._ref_inside_s
        rec["span"] = [t0, t1]
        if self.tracer is not None:
            self.tracer.end_run(span)
        if self.sampler is not None:
            self.sampler.due()
        self.records.append(rec)
        return rec, out

    def _train(self, kind, call, trainer, gate):
        cfg = make_config(self.spec["model"], call, self.seed)
        kwargs = {}
        if trainer == "lgt" and self.tracer is not None:
            kwargs = {"on_stage_start": self.tracer.on_stage_start,
                      "on_stage_end": self.tracer.on_stage_end}
        elif trainer == "lgt" and self.sampler is not None:
            kwargs = {"on_stage_start": self._ref_in_call}
        rec, out = self._call(kind, gg.train, self.data, cfg, trainer=trainer,
                              variant=call.get("variant", "gcn"), **kwargs)
        if out is None:
            return rec, None
        stack, report = out
        rec["epochs"] = report.total_epochs
        rec["stage_epochs"] = [s.epochs_run for s in report.stages]
        rec["test_acc"] = report.test_acc
        if not _finite_losses(report):
            rec["error"] = "non-finite training loss"
        elif gate is not None and not gate(report.test_acc):
            rec["error"] = f"test accuracy {report.test_acc:.4f} outside the gate"
        else:
            rec["ok"] = True
        return rec, stack

    def run(self):
        gate = self.spec.get("gate", {})
        lo, hi = gate.get("staged_min"), gate.get("baseline_max")
        staged_rec, stack = self._train("staged", self.spec["staged"], "lgt",
                                        None if lo is None else (lambda acc: acc >= lo))
        path = None if stack is None else self._save(stack)
        # inference batches sit between the training calls, so their samples
        # spread over the round instead of sharing one moment of machine load
        self._infer(path, staged_rec.get("test_acc"))
        for call in self.spec["baselines"]:
            self._train(f"baseline.{call['variant']}", call, "standard",
                        None if hi is None else (lambda acc: acc <= hi))
            self._infer(path, staged_rec.get("test_acc"))

    def _save(self, stack):
        """Checkpoint the staged model and check that reloading keeps its logits."""
        path = os.path.join(self.workdir, "staged.ckpt")
        rec, _ = self._call("save", gg.save_checkpoint, stack, path)
        if "error" in rec:
            return None
        rec["ok"] = True
        rec["mb"] = os.path.getsize(path) / MB
        rec, same = self._call("roundtrip", self._same_logits, stack, path)
        if same is not None:
            rec["ok"] = same
            if not same:
                rec["error"] = "checkpoint round trip changed the logits"
        return path

    def _infer(self, path, test_acc):
        """Timed load_checkpoint + evaluate(test) calls, the `growgcn eval` path."""
        if path is None:
            return
        for _ in range(INFER_BATCH):
            rec, acc = self._call("infer", lambda: gg.evaluate(
                gg.load_checkpoint(path), self.data, self.data.splits.test))
            if acc is None:
                continue
            rec["test_acc"] = acc
            rec["ok"] = acc == test_acc
            if not rec["ok"]:
                rec["error"] = f"evaluate gives {acc}, training reported {test_acc}"

    def _same_logits(self, stack, path):
        L = gg.normalized_laplacian(self.data.adjacency)
        want = gg.stack_forward(stack, L, self.data.X).data
        got = gg.stack_forward(gg.load_checkpoint(path), L, self.data.X).data
        return want.dtype == got.dtype and bool(np.array_equal(want, got))


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def setup_only(args):
    gg.load_bundle(args.bundle)
    print(time.monotonic() - args.t0)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--bundle", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    if args.setup_only:
        return setup_only(args)

    data = gg.load_bundle(args.bundle)
    spec = WORKLOADS[args.workload]
    workdir = os.path.dirname(os.path.abspath(args.out))
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s, "env": environment()}
    # the end-to-end timings need reference samples; a traced run leaves them out, so
    # that its untraced rounds compare with the traced one as they are
    sampler = None
    if not args.trace:
        ref = Reference(**{k: v for k, v in spec["reference"].items() if k != "nominal_s"})
        for _ in range(REF_WARMUP):
            ref.sample()
        sampler = Sampler(ref)

    # whole rounds, until less than half a round of --seconds is left (so a run lasts
    # --seconds on average; the first round always runs); a traced run makes two, so
    # that the second is as warm as the traced round after it
    rounds = []
    t_begin = time.perf_counter()
    while True:
        t = time.perf_counter()
        r = Round(spec, data, args.seed, workdir, sampler=sampler)
        r.run()
        rounds.append(r.records)
        now = time.perf_counter()
        if len(rounds) == 2 if args.trace else now - t_begin + (now - t) / 2 > args.seconds:
            break
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            span = tracer.new_run("load")
            data_t = gg.load_bundle(args.bundle)
            tracer.end_run(span)
            r = Round(spec, data_t, args.seed, workdir, tracer)
            r.run()
        finally:
            tracer.uninstall()
        result["traced"] = r.records
        untraced = next(x["seconds"] for x in rounds[-1] if x["kind"] == "staged")
        result["per_layer"] = layer_metrics.compute(tracer, r.records, args.bundle, untraced)
        tracer.save(os.path.splitext(args.out)[0] + "-spans.npz")
    result["rounds"] = rounds
    if sampler is not None:
        result["reference"] = sampler.samples
    with open(args.out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
