"""Tests of the benchmark itself: tracer patching, FLOP counts, repeatable counts,
and the reference-speed scaling of call timings.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import growgcn as gg  # noqa: E402
from growgcn import autodiff as ad  # noqa: E402

import gen  # noqa: E402
import layer_metrics  # noqa: E402
import measure  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402

TINY = {
    "graph": {"classes": 3, "per_class": 30, "p_in": 0.2, "p_out": 0.02, "f": 8,
              "signal": 2.0},
    "split": {"train": 5, "val": 10, "test": 10},
    "model": {"depth": 3, "hidden_dim": 8, "lora_rank": 2},
    "staged": {"max_epochs": 3, "fixed": True},
    "baselines": [
        {"variant": "gcn+pairnorm", "dropout_p": 0.5, "max_epochs": 4, "fixed": True},
        {"variant": "sgc", "max_epochs": 4, "fixed": True},
    ],
}


def _bindings():
    """Every (owner, attribute) -> object that the tracer may replace."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "growgcn" or name.startswith("growgcn."):
            for attr, obj in vars(mod).items():
                if callable(obj):
                    out[(name, attr)] = obj
    for cls in (gg.Tensor, gg.Adam, gg.LoraAdapter, gg.GcnLayer, gg.SparseMatrix):
        for attr, obj in vars(cls).items():
            out[(cls.__name__, attr)] = obj
    return out


def test_uninstall_restores_every_original():
    before = _bindings()
    tr = Tracer()
    tr.install()
    try:
        during = _bindings()
        assert during[("growgcn.autodiff", "spmm")] is not before[("growgcn.autodiff", "spmm")]
        # a `from .sparse import normalized_laplacian` copy is rebound too
        assert during[("growgcn.train", "normalized_laplacian")] is not \
            before[("growgcn.train", "normalized_laplacian")]
        assert during[("Tensor", "backward")] is not before[("Tensor", "backward")]
    finally:
        tr.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_flop_counts_on_three_node_graph():
    L = gg.normalized_laplacian(gg.build_adjacency([(0, 1), (1, 2)], 3))
    assert L.nnz == 7
    d, n = 4, 2
    rng = np.random.default_rng(0)
    x = gg.Tensor(rng.standard_normal((3, d)), requires_grad=True)
    w = gg.Tensor(rng.standard_normal((d, n)), requires_grad=True)
    tr = Tracer()
    tr.install()
    try:
        h = ad.matmul(ad.spmm(L, x), w)
        ad.masked_cross_entropy(ad.log_softmax_rows(h), np.array([0, 1, 0]), [0, 1, 2]).backward()
    finally:
        tr.uninstall()
    a = tr.arrays()
    names = np.asarray(tr.names)[a["name_id"]]

    def one(name, field):
        (v,) = a[field][names == name]
        return v

    assert one("autodiff.spmm", "flop") == 2 * L.nnz * d
    assert one("autodiff.spmm.bwd", "flop") == 2 * L.nnz * d
    assert one("autodiff.matmul", "flop") == 2 * 3 * d * n
    assert one("autodiff.matmul.bwd", "flop") == 2 * (2 * 3 * d * n)
    assert one("autodiff.matmul.bwd", "useful") == 2 * (2 * 3 * d * n)
    # the spans nest: every backward closure runs inside Tensor.backward
    (bwd,) = np.nonzero(names == "autodiff.backward")[0]
    assert a["parent"][names == "autodiff.spmm.bwd"][0] == bwd
    assert a["self"][bwd] <= a["dur"][bwd]


def test_matmul_backward_into_constant_input_is_not_useful():
    x = gg.Tensor(np.ones((5, 3)))
    w = gg.Tensor(np.ones((3, 2)), requires_grad=True)
    tr = Tracer()
    tr.install()
    try:
        ad.masked_cross_entropy(ad.log_softmax_rows(ad.matmul(x, w)),
                                np.zeros(5, dtype=int), [0, 1]).backward()
    finally:
        tr.uninstall()
    a = tr.arrays()
    m = np.asarray(tr.names)[a["name_id"]] == "autodiff.matmul.bwd"
    assert a["useful"][m][0] * 2 == a["flop"][m][0]


@pytest.fixture(scope="module")
def tiny_bundle(tmp_path_factory):
    path = tmp_path_factory.mktemp("bundle") / "tiny"
    gen.write_bundle(gen.make_bundle(TINY, 3), path, "tiny")
    return path


def _traced_round(bundle, workdir):
    data = gg.load_bundle(bundle)
    plain = measure.Round(TINY, data, 3, workdir)
    plain.run()
    tr = Tracer()
    tr.install()
    try:
        r = measure.Round(TINY, data, 3, workdir, tr)
        r.run()
    finally:
        tr.uninstall()
    staged_s = next(x["seconds"] for x in plain.records if x["kind"] == "staged")
    return plain.records, r.records, layer_metrics.compute(tr, r.records, bundle, staged_s)


COUNTS = ("autodiff.spmm.calls_per_epoch", "autodiff.spmm.gflop",
          "autodiff.matmul.calls_per_epoch", "autodiff.matmul.gflop",
          "autodiff.matmul.bwd_useful_ratio", "autodiff.nodes_per_epoch",
          "layers.stack_forward.calls", "train.epochs", "train.trainable_params.last",
          "sparse.normalized_laplacian.calls", "sparse.stored_mb", "checkpoint.mb",
          "data.bundle_mb")


def test_traced_round_matches_untraced_and_counts_repeat(tiny_bundle, tmp_path):
    plain, traced, first = _traced_round(tiny_bundle, tmp_path)
    assert all(r["ok"] for r in plain + traced), [r for r in plain + traced if not r["ok"]]
    for p, t in zip(plain, traced):
        assert p["kind"] == t["kind"]
        assert p.get("epochs") == t.get("epochs")
        assert p.get("test_acc") == t.get("test_acc")
    assert set(first) == set(layer_metrics.UNITS)
    assert first["train.epochs"] == 3 * 3 + 4 + 4
    assert first["layers.pairnorm.ms"] > 0 and first["layers.dropout.ms"] > 0
    _, _, second = _traced_round(tiny_bundle, tmp_path)
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}


def test_same_seed_same_inputs():
    a = gen.make_bundle(TINY, 5)
    b = gen.make_bundle(TINY, 5)
    c = gen.make_bundle(TINY, 6)
    assert np.array_equal(a["edges"], b["edges"]) and np.array_equal(a["X"], b["X"])
    assert a["splits"] == b["splits"]
    assert not np.array_equal(a["X"], c["X"])


def test_speed_factor_uses_the_samples_near_the_call():
    # the kernel took 20 ms around t = 0..1 and 40 ms (a machine at half speed) at t = 10..11
    samples = [[0.0, 0.02], [1.0, 0.02], [10.0, 0.04], [11.0, 0.04]]
    assert reference.speed_factor(0.02, samples, 0.2, 0.8) == 1.0
    assert reference.speed_factor(0.02, samples, 10.2, 10.8) == 0.5
    assert reference.speed_factor(0.02, samples) == pytest.approx(0.02 / 0.03)
    # no sample near the call: fall back to the whole run
    assert reference.speed_factor(0.02, samples, 100.0, 101.0) == pytest.approx(0.02 / 0.03)


def test_untraced_round_leaves_reference_time_out_of_its_calls(tiny_bundle, tmp_path):
    data = gg.load_bundle(tiny_bundle)
    sampler = reference.Sampler(reference.Reference(n=50, nnz=200, f=8, d=8, layers=2, reps=1))
    r = measure.Round(TINY, data, 3, tmp_path, sampler=sampler)
    r.run()
    assert all(x["ok"] for x in r.records)
    staged = next(x for x in r.records if x["kind"] == "staged")
    t0, t1 = staged["span"]
    inside = [s for t, s in sampler.samples if t0 < t < t1]
    assert staged["seconds"] < t1 - t0 - sum(inside) + 1e-9
    for x in r.records:  # a sample is never more than GAP_S older than a call's start
        assert any(x["span"][0] - reference.GAP_S <= t <= x["span"][0]
                   for t, _ in sampler.samples)


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == {k: u for k, u in run.E2E_UNITS.items() if k not in run.NOT_IN_JSON}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer_metrics.UNITS
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
