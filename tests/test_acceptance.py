"""Acceptance gate: ten numbered end-to-end checks (c01..c10).

Each test prints one live line with the measured values next to its
threshold, bypassing pytest's capture, so the gate's state is visible in any
run. Checks c05-c08 need the public citation bundle (cora); without it they
skip and print how to convert one.
"""

import hashlib
import os
import time
from pathlib import Path

import numpy as np
import pytest

from growgcn import (
    TrainConfig,
    build_adjacency,
    generate_sbm,
    load_bundle,
    normalized_laplacian,
    train,
)
from growgcn import gradcheck as gc
from growgcn import layers as ly
from growgcn.cli import _format_table, run_repeats

SBM_400 = dict(classes=4, nodes_per_class=100, p_in=0.1, p_out=0.01, f=32,
               signal=2.0, seed=0)


def announce(capsys, text):
    with capsys.disabled():
        print(f"\n{text}")


def mean_acc(reports):
    return float(np.mean([r.test_acc for r in reports]))


def test_c01_gradient_oracle(capsys):
    t0 = time.perf_counter()
    err = gc.run_suite(seeds=100)
    head_err = max(gc.sgc_head_case(s) for s in range(10))
    elapsed = time.perf_counter() - t0
    worst = max(err, head_err)
    ok = worst < 1e-6 and elapsed < 30.0
    announce(capsys, f"[c01] gradient oracle: max rel err {worst:.3e} < 1e-06, "
                     f"{elapsed:.1f}s < 30s -- {'PASS' if ok else 'FAIL'}")
    assert err < 1e-6
    assert head_err < 1e-6
    assert elapsed < 30.0


def test_c02_laplacian_invariants(capsys):
    rng = np.random.default_rng(2026)
    max_entry_dev = 0.0
    max_row_resid = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 51))
        p = float(rng.uniform(0.0, 0.25))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        adj = build_adjacency(pairs, n)
        L = normalized_laplacian(adj)
        m = L.to_scipy(np.float64)
        asym = abs(m - m.T)
        assert asym.nnz == 0 or asym.max() == 0.0
        deg = adj.row_sums()
        expected = 1.0 / np.sqrt((deg[L.row_indices()] + 1.0) * (deg[L.col_indices] + 1.0))
        max_entry_dev = max(max_entry_dev, float(np.abs(L.values - expected).max()))
        v = np.sqrt(deg + 1.0)
        max_row_resid = max(max_row_resid, float(np.abs(m @ v - v).max()))
    ok = max_entry_dev < 1e-12 and max_row_resid < 1e-10
    announce(capsys, f"[c02] laplacian invariants over 200 graphs: entry dev "
                     f"{max_entry_dev:.2e} < 1e-12, eigenvector residual "
                     f"{max_row_resid:.2e} < 1e-10 -- {'PASS' if ok else 'FAIL'}")
    assert max_entry_dev < 1e-12
    assert max_row_resid < 1e-10


def test_c03_stage_transition_identity(small_sbm, capsys):
    """Freshly grown stacks must predict exactly like the previous stage's
    model with one extra propagation step, before any update."""
    val = small_sbm.splits.val
    boundaries = []

    def on_start(stage, stack, L, Xp):
        if stage == 1:
            return
        sp = L.to_scipy(np.float32)
        h = Xp
        for layer in stack.layers[:-1]:
            z = (sp @ h) @ layer.W.data
            h = z * (z > 0)
        z = sp @ h  # the inserted parameter-free propagation
        h = z * (z > 0)
        ref = h @ stack.head.data
        cur = ly.stack_forward(stack, L, Xp, prepared=True).data
        bad = int((np.argmax(cur[val], 1) != np.argmax(ref[val], 1)).sum())
        boundaries.append(bad)

    cfg = TrainConfig(depth=6, hidden_dim=16, lora_rank=4, max_epochs=40,
                      patience=10, seed=0)
    train(small_sbm, cfg, trainer="lgt", on_stage_start=on_start)
    assert len(boundaries) == 5
    total_bad = sum(boundaries)
    ok = total_bad == 0
    announce(capsys, f"[c03] stage transitions: {total_bad} argmax mismatches over "
                     f"{len(boundaries)} boundaries x {len(val)} val nodes "
                     f"-- {'PASS' if ok else 'FAIL'}")
    assert total_bad == 0


def _named_arrays(stack):
    out = {}
    for i, layer in enumerate(stack.layers):
        out[f"layer{i}.W"] = layer.W.data
        if layer.adapter is not None:
            out[f"layer{i}.A"] = layer.adapter.A.data
            out[f"layer{i}.B"] = layer.adapter.B.data
    out["head"] = stack.head.data
    return out


def _hashes(stack):
    return {k: hashlib.sha256(v.tobytes()).hexdigest()
            for k, v in _named_arrays(stack).items()}


def test_c04_parameter_scope_audit(small_sbm, capsys):
    """Hash every array before and after each stage: only the new layer, the
    head, and the adapters may move, and the first two must move."""
    f, c = small_sbm.f, small_sbm.C
    d, r = 16, 4
    starts, ends, counts = {}, {}, {}

    def on_start(stage, stack, L, Xp):
        starts[stage] = _hashes(stack)
        counts[stage] = sum(p.data.size for p in stack.trainable_parameters())

    def on_end(stage, stack):
        ends[stage] = _hashes(stack)

    cfg = TrainConfig(depth=5, hidden_dim=d, lora_rank=r, max_epochs=30,
                      patience=10, seed=1)
    train(small_sbm, cfg, trainer="lgt", on_stage_start=on_start, on_stage_end=on_end)

    a_changed_anywhere = False
    for stage in sorted(starts):
        assert set(starts[stage]) == set(ends[stage])
        names = set(starts[stage])
        changed = {n for n in names if starts[stage][n] != ends[stage][n]}
        adapters = {n for n in names if n.endswith(".A") or n.endswith(".B")}
        new_w = f"layer{stage - 1}.W"
        assert changed <= {new_w, "head"} | adapters, (
            f"stage {stage} touched out-of-scope arrays: "
            f"{sorted(changed - ({new_w, 'head'} | adapters))}")
        assert new_w in changed and "head" in changed
        if stage >= 2:
            # B starts at zero and receives a nonzero first step, so every
            # adapter's B must differ even if the best epoch was the first
            bs = {n for n in names if n.endswith(".B")}
            assert bs <= changed
            a_changed_anywhere |= any(n.endswith(".A") for n in changed)
        bound = f * d + d * c if stage == 1 else (
            d * d + d * c + r * (f + d) + (stage - 2) * r * 2 * d)
        assert counts[stage] <= bound
    assert a_changed_anywhere
    announce(capsys, "[c04] parameter scope: every stage changed exactly "
                     "{new W, head, adapters}; frozen hashes stable; trainable "
                     "counts within bound -- PASS")


# ---------------------------------------------------------------- cora checks

_CORA_RUNS = {}


def _find_cora():
    roots = []
    env = os.environ.get("GROWGCN_CORA")
    if env:
        roots.append(Path(env))
    roots.append(Path(__file__).resolve().parent.parent / "data" / "cora")
    for root in roots:
        if (root / "meta.json").exists():
            return load_bundle(root)
    pytest.skip(
        "citation bundle not found; fetch the public cora.content/cora.cites "
        "files, run 'growgcn prepare planetoid --content cora.content "
        "--cites cora.cites --out data/cora', or point GROWGCN_CORA at a bundle"
    )


def _cora_runs(data, key, trainer, variant="gcn", **overrides):
    """Five random-split repeats per configuration, memoized across checks."""
    if key not in _CORA_RUNS:
        cfg = TrainConfig(seed=0, **overrides)
        _CORA_RUNS[key] = run_repeats(data, cfg, trainer, variant, 5, False)
    return _CORA_RUNS[key]


def test_c05_cora_depth_sweep(capsys):
    data = _find_cora()
    _, gcn32 = _cora_runs(data, ("gcn", 32), "standard", depth=32)
    lgt = {k: _cora_runs(data, ("lgt", k), "lgt", depth=k)[1] for k in (4, 8, 16, 32)}
    _, sgc32 = _cora_runs(data, ("sgc", 32), "standard", variant="sgc", depth=32)
    a = mean_acc(gcn32)
    b = {k: mean_acc(v) for k, v in lgt.items()}
    gap = b[32] - a
    d_ = mean_acc(sgc32)
    ok = a <= 0.55 and all(v >= 0.75 for v in b.values()) and gap >= 0.20 and d_ >= 0.60
    announce(capsys, f"[c05] cora depth sweep: gcn32 {a:.3f} <= 0.55; lgt "
                     f"{ {k: round(v, 3) for k, v in b.items()} } all >= 0.75; "
                     f"gap {gap:.3f} >= 0.20; sgc32 {d_:.3f} >= 0.60 "
                     f"-- {'PASS' if ok else 'FAIL'}")
    assert a <= 0.55
    for k, v in b.items():
        assert v >= 0.75, f"lgt depth {k} mean acc {v:.3f}"
    assert gap >= 0.20
    assert d_ >= 0.60


def test_c06_cora_ablation_ordering(capsys):
    data = _find_cora()
    _, gcn16 = _cora_runs(data, ("gcn", 16), "standard", depth=16)
    _, lt16 = _cora_runs(data, ("lt", 16), "lgt", depth=16, use_lora=False,
                         new_layer_init="glorot")
    _, full16 = _cora_runs(data, ("lgt", 16), "lgt", depth=16)
    lift = mean_acc(lt16) - mean_acc(gcn16)
    slack = mean_acc(full16) - (mean_acc(lt16) - 0.01)
    ok = lift >= 0.10 and slack >= 0.0
    announce(capsys, f"[c06] cora ablation at depth 16: layerwise lift {lift:.3f} "
                     f">= 0.10; full vs +lt slack {slack:+.3f} >= 0 "
                     f"-- {'PASS' if ok else 'FAIL'}")
    assert lift >= 0.10
    assert slack >= 0.0


def test_c07_cora_efficiency_ordering(capsys):
    data = _find_cora()
    _, gcn32 = _cora_runs(data, ("gcn", 32), "standard", depth=32)
    _, lgt32 = _cora_runs(data, ("lgt", 32), "lgt", depth=32)
    w_std = float(np.mean([r.total_wall_clock for r in gcn32]))
    w_lgt = float(np.mean([r.total_wall_clock for r in lgt32]))
    ok = w_lgt < w_std
    announce(capsys, f"[c07] cora wall clock at depth 32: staged {w_lgt:.0f}s vs "
                     f"standard {w_std:.0f}s -- {'PASS' if ok else 'FAIL'}")
    assert w_lgt < w_std


def test_c08_cora_collapse_ordering(capsys):
    data = _find_cora()
    _, gcn32 = _cora_runs(data, ("gcn", 32), "standard", depth=32)
    _, lgt32 = _cora_runs(data, ("lgt", 32), "lgt", depth=32)
    d_std = float(np.mean([r.collapse.distance_to_constant for r in gcn32]))
    d_lgt = float(np.mean([r.collapse.distance_to_constant for r in lgt32]))
    ok = d_std < d_lgt
    announce(capsys, f"[c08] cora collapse at depth 32: distance-to-constant "
                     f"standard {d_std:.3f} < staged {d_lgt:.3f} "
                     f"-- {'PASS' if ok else 'FAIL'}")
    assert d_std < d_lgt


# ------------------------------------------------------------ synthetic checks

def test_c09_sbm_depth16_gap(capsys):
    data = generate_sbm(**SBM_400)
    cfg = TrainConfig(depth=16, seed=0)
    t0 = time.perf_counter()
    _, rep_std = run_repeats(data, cfg, "standard", "gcn", 5, False)
    _, rep_lgt = run_repeats(data, cfg, "lgt", "gcn", 5, False)
    elapsed = time.perf_counter() - t0
    gap = mean_acc(rep_lgt) - mean_acc(rep_std)
    ok = gap >= 0.10 and elapsed < 300.0
    announce(capsys, f"[c09] sbm depth 16 over 5 seeds: staged {mean_acc(rep_lgt):.3f} "
                     f"vs standard {mean_acc(rep_std):.3f}, gap {gap * 100:.1f} pts "
                     f">= 10; {elapsed:.0f}s < 300s -- {'PASS' if ok else 'FAIL'}")
    assert gap >= 0.10
    assert elapsed < 300.0


def test_c10_rank_sweep_smoke(capsys):
    data = generate_sbm(**SBM_400)
    ranks, depths = (1, 4, 10, 32), (4, 8, 16)
    rows = []
    cells = {}
    for depth in depths:
        for rank in ranks:
            cfg = TrainConfig(depth=depth, lora_rank=rank, seed=0)
            _, reports = run_repeats(data, cfg, "lgt", "gcn", 2, False)
            accs = [r.test_acc for r in reports]
            assert all(np.isfinite(a) for a in accs)
            mean, std = float(np.mean(accs)), float(np.std(accs))
            cells[(depth, rank)] = mean
            rows.append([f"depth{depth}", f"rank{rank}", f"{mean:.4f} +/- {std:.4f}"])
    table = _format_table(rows, ["depth", "rank", "test_acc"])
    lines = table.splitlines()
    assert len(lines) == 2 + len(rows)
    assert all(len(line.split()) >= 3 for line in lines[2:])
    best_rank = {d: max(ranks, key=lambda r: cells[(d, r)]) for d in depths}
    announce(capsys, f"[c10] rank sweep: all {len(rows)} cells finite -- PASS\n"
                     f"{table}\nbest rank per depth: {best_rank}")
