"""Per-layer metrics from one traced round: names, units and how each is derived.

"ms/epoch" metrics sum span time over the round's training calls (staged and
baselines) and divide by the epochs those calls ran, so they add up towards
``epoch_ms``. "ms" metrics are the mean time of one call over the whole round.
"""

import os

import numpy as np

MB = 2.0 ** 20
TRAIN_KINDS = ("staged", "baseline.")

UNITS = {
    "autodiff.spmm.fwd_ms": "ms/epoch",
    "autodiff.spmm.bwd_ms": "ms/epoch",
    "autodiff.spmm.calls_per_epoch": "1/epoch",
    "autodiff.spmm.gflop": "GFLOP/epoch",
    "autodiff.matmul.fwd_ms": "ms/epoch",
    "autodiff.matmul.bwd_ms": "ms/epoch",
    "autodiff.matmul.calls_per_epoch": "1/epoch",
    "autodiff.matmul.gflop": "GFLOP/epoch",
    "autodiff.matmul.bwd_useful_ratio": "ratio",
    "autodiff.relu.fwd_ms": "ms/epoch",
    "autodiff.relu.bwd_ms": "ms/epoch",
    "autodiff.loss.fwd_ms": "ms/epoch",
    "autodiff.loss.bwd_ms": "ms/epoch",
    "autodiff.addscale.ms": "ms/epoch",
    "autodiff.backward.self_ms": "ms/epoch",
    "autodiff.nodes_per_epoch": "1/epoch",
    "layers.pairnorm.ms": "ms/epoch",
    "layers.dropout.ms": "ms/epoch",
    "layers.lora_delta.ms": "ms/epoch",
    "layers.merge_adapter.ms": "ms/epoch",
    "layers.stack_forward.calls": "count",
    "layers.stack_forward.ms": "ms",
    "train.epochs": "count",
    "train.adam_step_ms": "ms/epoch",
    "train.stage_epoch_ms.first": "ms/epoch",
    "train.stage_epoch_ms.last": "ms/epoch",
    "train.trainable_params.last": "count",
    "train.self_ms": "ms/epoch",
    "sparse.normalized_laplacian.ms": "ms",
    "sparse.normalized_laplacian.calls": "count",
    "sparse.stored_mb": "MB",
    "metrics.collapse_report.ms": "ms",
    "checkpoint.load_ms": "ms",
    "checkpoint.save_ms": "ms",
    "checkpoint.mb": "MB",
    "data.load_bundle.ms": "ms",
    "data.bundle_mb": "MB",
    "trace.train_s_ratio": "ratio",
}

OP_FWD = ("autodiff.matmul", "autodiff.spmm", "autodiff.add", "autodiff.scale",
          "autodiff.relu", "autodiff.log_softmax_rows", "autodiff.masked_cross_entropy")
LOSS = ("autodiff.log_softmax_rows", "autodiff.masked_cross_entropy")


def _dir_bytes(path):
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def compute(tracer, records, bundle, untraced_staged_s):
    """Per-layer metrics of a traced round; ``records`` are the round's call records."""
    a = tracer.arrays()
    names = np.asarray(tracer.names)[a["name_id"]] if tracer.names else np.array([])
    train_runs = [r["run"] for r in records if r["kind"].startswith(TRAIN_KINDS)]
    in_train = np.isin(a["run"], train_runs)
    epochs = sum(r.get("epochs", 0) for r in records if r["kind"].startswith(TRAIN_KINDS))
    per_epoch = 1.0 / max(epochs, 1)

    def sel(*span_names, train_only=True):
        m = np.isin(names, span_names)
        return m & in_train if train_only else m

    def ms_per_epoch(*span_names, field="dur"):
        return float(a[field][sel(*span_names)].sum()) * 1e3 * per_epoch

    def calls(*span_names, train_only=True):
        return int(sel(*span_names, train_only=train_only).sum())

    def mean_ms(name):
        m = sel(name, train_only=False)
        return float(a["dur"][m].mean()) * 1e3 if m.any() else 0.0

    def gflop(op):
        return float(a["flop"][sel(op, op + ".bwd")].sum()) * 1e-9 * per_epoch

    mm_bwd = sel("autodiff.matmul.bwd")
    mm_computed = float(a["flop"][mm_bwd].sum())

    out = {
        "autodiff.spmm.fwd_ms": ms_per_epoch("autodiff.spmm"),
        "autodiff.spmm.bwd_ms": ms_per_epoch("autodiff.spmm.bwd"),
        "autodiff.spmm.calls_per_epoch": calls("autodiff.spmm") * per_epoch,
        "autodiff.spmm.gflop": gflop("autodiff.spmm"),
        "autodiff.matmul.fwd_ms": ms_per_epoch("autodiff.matmul"),
        "autodiff.matmul.bwd_ms": ms_per_epoch("autodiff.matmul.bwd"),
        "autodiff.matmul.calls_per_epoch": calls("autodiff.matmul") * per_epoch,
        "autodiff.matmul.gflop": gflop("autodiff.matmul"),
        "autodiff.matmul.bwd_useful_ratio":
            float(a["useful"][mm_bwd].sum()) / mm_computed if mm_computed else 0.0,
        "autodiff.relu.fwd_ms": ms_per_epoch("autodiff.relu"),
        "autodiff.relu.bwd_ms": ms_per_epoch("autodiff.relu.bwd"),
        "autodiff.loss.fwd_ms": ms_per_epoch(*LOSS),
        "autodiff.loss.bwd_ms": ms_per_epoch(*(n + ".bwd" for n in LOSS)),
        "autodiff.addscale.ms": ms_per_epoch("autodiff.add", "autodiff.scale",
                                             "autodiff.add.bwd", "autodiff.scale.bwd"),
        "autodiff.backward.self_ms": ms_per_epoch("autodiff.backward", field="self"),
        "autodiff.nodes_per_epoch": calls(*OP_FWD) * per_epoch,
        "layers.pairnorm.ms": ms_per_epoch("layers.pairnorm", "layers.pairnorm.bwd"),
        "layers.dropout.ms": ms_per_epoch("layers.dropout", "layers.dropout.bwd"),
        "layers.lora_delta.ms": ms_per_epoch("layers.lora_delta"),
        "layers.merge_adapter.ms": ms_per_epoch("layers.merge_adapter"),
        "layers.stack_forward.calls": calls("layers.stack_forward", train_only=False),
        "layers.stack_forward.ms": mean_ms("layers.stack_forward"),
        "train.epochs": epochs,
        "train.adam_step_ms": ms_per_epoch("train.Adam.step"),
        "train.self_ms": float(a["self"][in_train & np.char.startswith(names, "train.")
                                         & ~np.isin(names, ("train.Adam.step",
                                                            "train.adam_step"))].sum())
                         * 1e3 * per_epoch,
        "sparse.normalized_laplacian.ms": mean_ms("sparse.normalized_laplacian"),
        "sparse.normalized_laplacian.calls":
            calls("sparse.normalized_laplacian", train_only=False),
        "sparse.stored_mb": tracer.stored_bytes() / MB,
        "metrics.collapse_report.ms": mean_ms("metrics.collapse_report"),
        "checkpoint.load_ms": mean_ms("checkpoint.load_checkpoint"),
        "checkpoint.save_ms": mean_ms("checkpoint.save_checkpoint"),
        "checkpoint.mb": next((r["mb"] for r in records if "mb" in r), 0.0),
        "data.load_bundle.ms": mean_ms("data.load_bundle"),
        "data.bundle_mb": _dir_bytes(bundle) / MB,
    }

    staged = next((r for r in records if r["kind"] == "staged" and "epochs" in r), None)
    stages = [s for s in tracer.stages if staged is not None and s[0] == staged["run"]]
    first = last = 0.0
    if stages:
        ep = staged["stage_epochs"]
        first = float(a["dur"][stages[0][2]]) * 1e3 / ep[0]
        last = float(a["dur"][stages[-1][2]]) * 1e3 / ep[-1]
    out["train.stage_epoch_ms.first"] = first
    out["train.stage_epoch_ms.last"] = last
    out["train.trainable_params.last"] = stages[-1][3] if stages else 0
    out["trace.train_s_ratio"] = staged["seconds"] / untraced_staged_s if staged else 0.0
    return {k: out[k] for k in UNITS}
