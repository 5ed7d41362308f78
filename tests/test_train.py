import dataclasses
import hashlib
import importlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from growgcn import (
    Adam,
    EarlyStopper,
    GcnLayer,
    LayerStack,
    NumericalAbort,
    Splits,
    Tensor,
    TrainConfig,
    build_adjacency,
    collapse_report,
    evaluate,
    generate_sbm,
    glorot_init,
    make_adapter,
    normalized_laplacian,
    train,
)
from growgcn import autodiff as ad
from growgcn import layers as ly
from growgcn.metrics import collapse_from_hidden
from conftest import BIT_GENERATORS, random_graph, same_state
from growgcn.train import (
    RowCone,
    StageReport,
    _accuracy,
    _restore,
    _snapshot,
    _stage_plan,
    adam_step,
    check_run,
)

# the package rebinds the name ``growgcn.train`` to the dispatcher function
gtrain = importlib.import_module("growgcn.train")


def make_cfg(**kw):
    base = dict(hidden_dim=8, max_epochs=40, patience=10, seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestAdam:
    def test_first_step_is_minus_lr(self):
        p = np.zeros(3)
        adam_step(p, np.ones(3), np.zeros(3), np.zeros(3), t=1, lr=0.1)
        assert np.allclose(p, -0.1, atol=1e-8)

    def test_none_grad_skipped(self):
        p, q = (Tensor(np.ones((2, 2)), requires_grad=True) for _ in range(2))
        r = Tensor(np.zeros(2), requires_grad=True)
        r.grad = np.ones(2)
        opt = Adam([{"params": [p, q], "lr": 0.5}, {"params": [r], "lr": 0.1}])
        opt.step()
        assert np.array_equal(p.data, np.ones((2, 2)))
        assert np.array_equal(q.data, np.ones((2, 2)))
        assert np.allclose(r.data, -0.1, atol=1e-8)  # the other group still steps

    def test_tensor_in_two_groups_rejected(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        with pytest.raises(ValueError, match="listed twice"):
            Adam([{"params": [p], "lr": 0.1}, {"params": [p], "lr": 0.01}])
        with pytest.raises(ValueError, match="listed twice"):
            Adam([{"params": [p, p], "lr": 0.1}])

    def test_mixed_dtype_group_rejected(self):
        a = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        b = Tensor(np.zeros(2, dtype=np.float64), requires_grad=True)
        with pytest.raises(ValueError, match="mixes dtypes"):
            Adam([{"params": [a, b], "lr": 0.1}])
        opt = Adam([{"params": [a], "lr": 0.1}, {"params": [b], "lr": 0.1}])  # one per group
        a.grad = np.ones(2)  # float64: not the group's dtype, so not a bitwise update
        with pytest.raises(TypeError):
            opt.step()

    def test_group_with_some_gradients_missing_rejected(self):
        a, b = (Tensor(np.zeros(2), requires_grad=True) for _ in range(2))
        a.grad = np.ones(2)
        opt = Adam([{"params": [a, b], "lr": 0.1}])
        with pytest.raises(ValueError, match="no gradient"):
            opt.step()

    def test_decoupled_weight_decay(self):
        p = Tensor(np.ones(4), requires_grad=True)
        p.grad = np.zeros(4)
        opt = Adam([{"params": [p], "lr": 0.01, "weight_decay": 0.1}])
        opt.step()
        # zero gradient keeps the adam direction at zero; only decay acts
        assert np.allclose(p.data, 1.0 - 0.01 * 0.1)

    def test_per_group_lr(self):
        a = Tensor(np.zeros(2), requires_grad=True)
        b = Tensor(np.zeros(2), requires_grad=True)
        a.grad = np.ones(2)
        b.grad = np.ones(2)
        opt = Adam([{"params": [a], "lr": 0.1}, {"params": [b], "lr": 0.01}])
        opt.step()
        assert np.allclose(a.data, -0.1, atol=1e-8)
        assert np.allclose(b.data, -0.01, atol=1e-9)

    def test_nonfinite_grad_aborts(self):
        ok, bad, worse = (Tensor(np.ones(shape), requires_grad=True)
                          for shape in ((3,), (2, 2), (4,)))
        opt = Adam([{"params": [ok, bad, worse], "lr": 0.1}])
        for p in (ok, bad, worse):
            p.grad = np.ones(p.data.shape)
        opt.step()
        bad.grad[1, 0] = np.inf
        worse.grad[0] = np.nan
        # names the group's first tensor with a non-finite gradient, and the step
        with pytest.raises(NumericalAbort,
                           match=r"non-finite gradient .* shape \(2, 2\) at step 2"):
            opt.step()

    def test_zero_grad_clears(self):
        p = Tensor(np.ones(2), requires_grad=True)
        p.grad = np.ones(2)
        opt = Adam([{"params": [p], "lr": 0.1}])
        opt.zero_grad()
        assert p.grad is None


class _PerTensorAdam:
    """Reference Adam: one finiteness check and one ``adam_step`` per tensor."""

    def __init__(self, groups, beta1=0.9, beta2=0.999, eps=1e-8):
        self.groups = [
            {"params": list(g["params"]), "lr": float(g["lr"]),
             "weight_decay": float(g.get("weight_decay", 0.0))}
            for g in groups
        ]
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self._state = {}
        for g in self.groups:
            for p in g["params"]:
                self._state[id(p)] = (np.zeros_like(p.data), np.zeros_like(p.data))

    def zero_grad(self):
        for g in self.groups:
            for p in g["params"]:
                p.grad = None

    def step(self):
        self.t += 1
        for g in self.groups:
            for p in g["params"]:
                if p.grad is None:
                    continue
                if not np.all(np.isfinite(p.grad)):
                    raise NumericalAbort(
                        f"non-finite gradient for parameter of shape {p.data.shape} "
                        f"at step {self.t}"
                    )
                m, v = self._state[id(p)]
                adam_step(p.data, p.grad, m, v, self.t, g["lr"],
                          self.beta1, self.beta2, self.eps, g["weight_decay"])


def _fingerprint(stack, report):
    """sha256 over every weight's dtype, shape and bytes, and the report's JSON without
    its wall clocks."""
    h = hashlib.sha256()
    for p in stack.parameters():
        h.update(f"{p.data.dtype}{p.data.shape}".encode() + p.data.tobytes())
    report.total_wall_clock = 0.0
    for st_rep in report.stages:
        st_rep.wall_clock_seconds = 0.0
    return h.hexdigest(), report.to_json()


class TestFlatAdamOracle:
    """Adam's one update per flat group against the per-tensor reference, bitwise."""

    @staticmethod
    def _tensors():
        r = np.random.default_rng(0)
        f32 = [Tensor(r.standard_normal((5, 3)).astype(np.float32), requires_grad=True),
               # a transposed, so non-contiguous, tensor
               Tensor(r.standard_normal((4, 6)).astype(np.float32).T, requires_grad=True),
               Tensor(r.standard_normal(7).astype(np.float32), requires_grad=True)]
        f64 = [Tensor(r.standard_normal((3, 3)), requires_grad=True),
               Tensor(r.standard_normal((2, 8)), requires_grad=True)]
        return f32, f64

    @pytest.mark.parametrize("wd32, wd64", [(0.0, 0.1), (5e-4, 0.0)])
    def test_twenty_steps_match_reference(self, wd32, wd64):
        sides = []
        for cls in (Adam, _PerTensorAdam):
            f32, f64 = self._tensors()
            opt = cls([{"params": f32, "lr": 0.01, "weight_decay": wd32},
                       {"params": f64, "lr": 0.003, "weight_decay": wd64}])
            sides.append((f32 + f64, opt))
        (flat_params, flat), (ref_params, ref) = sides
        assert not ref_params[1].data.flags.c_contiguous  # the reference steps the view
        grad_rng = np.random.default_rng(1)
        for _ in range(20):
            for p, q in zip(flat_params, ref_params):
                g = grad_rng.standard_normal(p.data.shape[::-1]).astype(p.data.dtype).T
                p.grad, q.grad = g, g.copy()  # one non-contiguous and one contiguous copy
            flat.step()
            ref.step()
        for p, q in zip(flat_params, ref_params):
            assert p.data.dtype == q.data.dtype and p.data.shape == q.data.shape
            assert p.data.tobytes() == q.data.tobytes()
        for g, ref_g in zip(flat.groups, ref.groups):
            for k, key in enumerate(("m", "v")):
                want = np.concatenate([ref._state[id(q)][k] for q in ref_g["params"]],
                                      axis=None)
                assert g[key].tobytes() == want.tobytes()

    @pytest.mark.parametrize("trainer, variant, dropout_p", [
        ("lgt", "gcn", 0.0),
        ("lgt", "gcn", 0.3),
        ("lgt", "gcn+pairnorm", None),
        ("standard", "gcn", None),
        ("standard", "sgc", None),
    ])
    def test_train_matches_reference(self, monkeypatch, small_sbm, trainer, variant,
                                     dropout_p):
        cfg = TrainConfig(depth=4, hidden_dim=8, lora_rank=2, max_epochs=30, patience=6,
                          dropout_p=dropout_p, seed=3)
        runs = []
        for cls in (Adam, _PerTensorAdam):
            with monkeypatch.context() as m:
                m.setattr(gtrain, "Adam", cls)
                stack, report, _ = _run(monkeypatch, gtrain._fit, trainer, variant, cfg,
                                        small_sbm)
            runs.append(_fingerprint(stack, report))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("trainer", ["lgt", "standard"])
    def test_no_parameter_outlives_its_stage_as_a_view(self, monkeypatch, small_sbm,
                                                       trainer):
        made = []

        class Recording(Adam):
            def __init__(self, groups):
                super().__init__(groups)
                # while the stage trains, every group tensor is a view into its buffer
                assert all(np.shares_memory(p.data, g["flat"])
                           for g in self.groups for p in g["params"])
                made.append(self)

        cfg = TrainConfig(depth=3, hidden_dim=8, lora_rank=2, max_epochs=5, patience=5)
        with monkeypatch.context() as m:
            m.setattr(gtrain, "Adam", Recording)
            stack, _ = train(small_sbm, cfg, trainer=trainer)
        assert len(made) == (cfg.depth if trainer == "lgt" else 1)
        buffers = [g[key] for adam in made for g in adam.groups
                   for key in ("flat", "grad", "m", "v")]
        assert not any(np.shares_memory(p.data, b)
                       for p in stack.parameters() for b in buffers)


class TestEarlyStopper:
    def test_flat_trace(self):
        stop = EarlyStopper(patience=2)
        outcomes = [stop.update(v) for v in [0.5, 0.5, 0.5]]
        assert outcomes == [False, False, True]
        assert stop.best == 0.5 and stop.best_epoch == 1

    def test_peak_then_plateau(self):
        stop = EarlyStopper(patience=3)
        outcomes = [stop.update(v) for v in [0.5, 0.7, 0.6, 0.6, 0.6]]
        assert outcomes == [False, False, False, False, True]
        assert stop.best == 0.7 and stop.best_epoch == 2

    def test_ties_do_not_refresh(self):
        stop = EarlyStopper(patience=1)
        assert not stop.update(0.9)
        assert stop.update(0.9)  # tie is not a strict improvement

    def test_rejects_zero_patience(self):
        with pytest.raises(ValueError):
            EarlyStopper(0)

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=25),
        patience=st.integers(1, 5),
    )
    def test_matches_reference_walk(self, values, patience):
        stop = EarlyStopper(patience)
        best, best_epoch = -np.inf, 0
        for epoch, v in enumerate(values, start=1):
            stopped = stop.update(v)
            if v > best:
                best, best_epoch = v, epoch
            assert stop.best == best
            assert stop.best_epoch == best_epoch
            assert stop.bad == epoch - best_epoch
            assert stopped == (epoch - best_epoch >= patience)
            if stopped:
                break


class TestConfig:
    def test_validate_rejects(self):
        bad = [
            dict(depth=0), dict(hidden_dim=0), dict(lr=0.0), dict(weight_decay=-1.0),
            dict(dropout_p=1.0), dict(max_epochs=0), dict(patience=0),
            dict(max_epochs=10, patience=11), dict(lora_rank=0),
            dict(new_layer_init="zeros"),
            # counts are integers, rates and scales finite, switches booleans
            dict(depth=2.0), dict(depth=True), dict(hidden_dim=float("inf")),
            dict(seed=-1), dict(lr=float("nan")), dict(weight_decay=float("inf")),
            dict(pairnorm_s=float("nan")), dict(pairnorm_s=0.0),
            dict(lr=None), dict(use_lora=3),
        ]
        for kw in bad:
            with pytest.raises(ValueError):
                TrainConfig(**kw).validate()
        TrainConfig().validate()

    def test_dropout_resolution(self):
        assert TrainConfig().resolved_dropout("standard") == 0.5
        assert TrainConfig().resolved_dropout("lgt") == 0.0
        assert TrainConfig(dropout_p=0.2).resolved_dropout("standard") == 0.2
        assert TrainConfig(dropout_p=0.2).resolved_dropout("lgt") == 0.2
        assert TrainConfig().resolved_dropout("standard", "gcn+pairnorm") == 0.5
        assert TrainConfig().resolved_dropout("standard", "sgc") == 0.0
        assert TrainConfig(dropout_p=0.2).resolved_dropout("standard", "sgc") == 0.2

    def test_lora_rank_bound(self, tiny_dataset):
        # the bound is min(f, hidden_dim) = min(5, 8), checked once for every caller
        check_run(TrainConfig(depth=3, hidden_dim=8, lora_rank=5), "lgt", "gcn", 5)
        check_run(TrainConfig(depth=1, hidden_dim=8, lora_rank=6), "lgt", "gcn", 5)
        check_run(TrainConfig(depth=3, hidden_dim=8, lora_rank=6, use_lora=False), "lgt", "gcn", 5)
        check_run(TrainConfig(depth=3, hidden_dim=8, lora_rank=6), "standard", "gcn", 5)
        check_run(TrainConfig(depth=3, hidden_dim=8, lora_rank=6), "lgt", "gcn")  # f unknown
        with pytest.raises(ValueError, match="= 5"):
            check_run(TrainConfig(depth=3, hidden_dim=8, lora_rank=6), "lgt", "gcn", 5)
        with pytest.raises(ValueError, match="lora rank 6 exceeds"):
            train(tiny_dataset, lgt_cfg(hidden_dim=8, lora_rank=6), trainer="lgt")

    @pytest.mark.parametrize("trainer, variant, match", [
        ("joint", "gcn", "unknown trainer 'joint'"),
        ("standard", "gat", "unknown variant 'gat'"),
        ("lgt", "sgc", r"staged training \(trainer lgt\) supports the variants gcn, "
                       r"gcn\+pairnorm, not 'sgc'"),
    ])
    def test_check_run_rejects_unknown_names(self, trainer, variant, match):
        check_run(TrainConfig(), "standard", "sgc")
        with pytest.raises(ValueError, match=match):
            check_run(TrainConfig(), trainer, variant)


class TestStandardTrainer:
    def test_restore_best_and_report_consistency(self, tiny_dataset):
        cfg = make_cfg(depth=2)
        stack, report = train(tiny_dataset, cfg, trainer="standard", variant="gcn")
        assert len(report.stages) == 1
        assert report.stages[0].epochs_run == len(report.stages[0].train_loss)
        assert evaluate(stack, tiny_dataset, tiny_dataset.splits.val) == \
            report.stages[0].best_val_acc
        assert evaluate(stack, tiny_dataset, tiny_dataset.splits.test) == report.test_acc

    def test_deterministic_given_seed(self, tiny_dataset):
        runs = [train(tiny_dataset, make_cfg(depth=2, seed=3), trainer="standard",
                      variant="gcn") for _ in range(2)]
        (s1, r1), (s2, r2) = runs
        assert r1.test_acc == r2.test_acc
        assert r1.stages[0].train_loss == r2.stages[0].train_loss
        for a, b in zip(s1.parameters(), s2.parameters()):
            assert np.array_equal(a.data, b.data)

    def test_seed_changes_trajectory(self, tiny_dataset):
        _, r1 = train(tiny_dataset, make_cfg(depth=2, seed=0), trainer="standard")
        _, r2 = train(tiny_dataset, make_cfg(depth=2, seed=1), trainer="standard")
        assert r1.stages[0].train_loss != r2.stages[0].train_loss

    def test_dropout_defaults_per_variant(self, tiny_dataset):
        cfg = make_cfg(depth=2, max_epochs=2, patience=2)
        stack, _ = train(tiny_dataset, cfg, trainer="standard", variant="gcn")
        assert stack.dropout_p == 0.5
        stack, _ = train(tiny_dataset, cfg, trainer="standard", variant="sgc")
        assert stack.dropout_p == 0.0
        stack, _ = train(tiny_dataset, make_cfg(depth=2, max_epochs=2, patience=2, dropout_p=0.2),
                         trainer="standard", variant="sgc")
        assert stack.dropout_p == 0.2

    def test_sgc_fast_path_matches_stack_forward(self, tiny_dataset):
        cfg = make_cfg(depth=3)
        stack, report = train(tiny_dataset, cfg, trainer="standard", variant="sgc")
        assert stack.layers == [] and stack.sgc_steps == 3
        assert evaluate(stack, tiny_dataset, tiny_dataset.splits.test) == report.test_acc

    @pytest.mark.parametrize("variant", ["gcn", "sgc"])
    def test_stage_callbacks_fire_once(self, tiny_dataset, variant):
        events = []
        cfg = make_cfg(depth=3, max_epochs=4, patience=4)
        stack, report = train(
            tiny_dataset, cfg, trainer="standard", variant=variant,
            on_stage_start=lambda stage, st, L, Xp: events.append(
                ("start", stage, st.depth, Xp.shape)),
            on_stage_end=lambda stage, st: events.append(("end", stage, st.depth)))
        assert events == [("start", 1, 3, tiny_dataset.X.shape), ("end", 1, 3)]
        assert stack.depth == 3
        # the call's total covers its one stage's plan and fit
        assert report.total_wall_clock >= report.stages[0].wall_clock_seconds

    def test_pairnorm_variant_builds(self, tiny_dataset):
        cfg = make_cfg(depth=2, max_epochs=3, patience=3, pairnorm_s=2.0)
        stack, _ = train(tiny_dataset, cfg, trainer="standard", variant="gcn+pairnorm")
        assert stack.pairnorm_s == 2.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_forward_aborts(self, tiny_dataset):
        blown = dataclasses.replace(tiny_dataset, X=tiny_dataset.X * 1e39)
        cfg = make_cfg(depth=2, row_normalize_features=False)
        with pytest.raises(NumericalAbort):
            train(blown, cfg, trainer="standard", variant="gcn")

    def test_unknown_variant(self, tiny_dataset):
        with pytest.raises(ValueError, match="variant"):
            train(tiny_dataset, make_cfg(), trainer="standard", variant="gat")


def lgt_cfg(**kw):
    base = dict(depth=3, hidden_dim=8, max_epochs=8, patience=4, lora_rank=2, seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestLgtTrainer:
    def test_grows_to_requested_depth(self, tiny_dataset):
        stack, report = train(tiny_dataset, lgt_cfg(), trainer="lgt")
        assert stack.depth == 3
        assert len(report.stages) == 3
        assert report.total_epochs == sum(s.epochs_run for s in report.stages)
        # merge on: every layer is plain frozen, only the head stays trainable
        assert all(l.mode == "frozen" for l in stack.layers)
        assert stack.trainable_parameters() == [stack.head]

    def test_trainable_counts_per_stage(self, tiny_dataset):
        f, c, d, r = tiny_dataset.f, tiny_dataset.C, 8, 2
        expected = {1: f * d + d * c}
        for s in (2, 3, 4):
            expected[s] = d * d + d * c + r * (f + d) + (s - 2) * 2 * r * d
        seen = {}

        def on_start(stage, stack, L, Xp):
            seen[stage] = sum(p.data.size for p in stack.trainable_parameters())

        train(tiny_dataset, lgt_cfg(depth=4, max_epochs=3, patience=3), trainer="lgt",
              on_stage_start=on_start)
        assert seen == expected

    def test_every_stage_attaches_fresh_adapters(self, tiny_dataset):
        # the last stage's adapters were merged: each frozen layer starts the
        # stage with a new one whose delta is zero and whose alpha is its rank
        seen = []

        def on_start(stage, stack, L, Xp):
            for layer in stack.layers[:-1]:
                a = layer.adapter
                assert layer.mode == "frozen_lora"
                assert not np.any(a.B.data)
                assert a.alpha == a.rank == 2 and a.scaling == 1.0
            assert stack.layers[-1].mode == "trainable"
            seen.append((stage, len(stack.layers) - 1))

        train(tiny_dataset, lgt_cfg(depth=4, max_epochs=3, patience=3), trainer="lgt",
              on_stage_start=on_start)
        assert seen == [(1, 0), (2, 1), (3, 2), (4, 3)]

    def test_no_lora_trains_only_new_and_head(self, tiny_dataset):
        seen = {}

        def on_start(stage, stack, L, Xp):
            seen[stage] = sum(p.data.size for p in stack.trainable_parameters())

        stack, _ = train(tiny_dataset, lgt_cfg(use_lora=False, max_epochs=3, patience=3),
                         trainer="lgt", on_stage_start=on_start)
        f, c, d = tiny_dataset.f, tiny_dataset.C, 8
        assert seen == {1: f * d + d * c, 2: d * d + d * c, 3: d * d + d * c}
        assert all(l.adapter is None for l in stack.layers)

    def test_merge_accounting_bitwise(self, tiny_dataset):
        last = {}

        def on_end(stage, stack):
            last.clear()
            for i, layer in enumerate(stack.layers):
                if layer.adapter is not None:
                    a = layer.adapter
                    last[i] = (layer.W.data.copy(), a.scaling, a.A.data.copy(),
                               a.B.data.copy())
                else:
                    last[i] = (layer.W.data.copy(), None, None, None)

        stack, _ = train(tiny_dataset, lgt_cfg(), trainer="lgt", on_stage_end=on_end)
        for i, layer in enumerate(stack.layers):
            w0, scaling, a, b = last[i]
            expected = w0 if a is None else w0 + np.asarray(scaling * (a @ b), w0.dtype)
            assert np.array_equal(layer.W.data, expected)

    def test_restore_best_exact_when_caches_off(self, tiny_dataset):
        # dropout > 0 forces the per-layer forward, whose op order matches
        # evaluate() exactly, so the restored weights reproduce best_val_acc
        cfg = lgt_cfg(dropout_p=0.3)
        stack, report = train(tiny_dataset, cfg, trainer="lgt")
        assert evaluate(stack, tiny_dataset, tiny_dataset.splits.val) == \
            report.stages[-1].best_val_acc
        assert evaluate(stack, tiny_dataset, tiny_dataset.splits.test) == report.test_acc

    def test_deterministic_given_seed(self, tiny_dataset):
        runs = [train(tiny_dataset, lgt_cfg(seed=7), trainer="lgt") for _ in range(2)]
        (s1, r1), (s2, r2) = runs
        assert r1.test_acc == r2.test_acc
        for a, b in zip(s1.parameters(), s2.parameters()):
            assert np.array_equal(a.data, b.data)
        for st1, st2 in zip(r1.stages, r2.stages):
            assert st1.train_loss == st2.train_loss

    def test_depth1_matches_standard_bitwise(self, tiny_dataset):
        kw = dict(depth=1, dropout_p=0.0, max_epochs=30, patience=10, seed=2)
        s_std, r_std = train(tiny_dataset, make_cfg(**kw), trainer="standard", variant="gcn")
        s_lgt, r_lgt = train(tiny_dataset, make_cfg(**kw), trainer="lgt", variant="gcn")
        assert r_std.test_acc == r_lgt.test_acc
        assert r_std.stages[0].train_loss == r_lgt.stages[0].train_loss
        for a, b in zip(s_std.parameters(), s_lgt.parameters()):
            assert np.array_equal(a.data, b.data)

    def test_glorot_new_layers_supported(self, tiny_dataset):
        stack, report = train(tiny_dataset, lgt_cfg(new_layer_init="glorot", max_epochs=3,
                                                    patience=3), trainer="lgt")
        assert stack.depth == 3 and np.isfinite(report.test_acc)

    def test_rejects_sgc(self, tiny_dataset):
        with pytest.raises(ValueError, match="staged training"):
            train(tiny_dataset, lgt_cfg(), trainer="lgt", variant="sgc")


class TestStageCaches:
    def _lora_stack(self, f, d, c, rng, zero_b):
        inp = GcnLayer(Tensor(glorot_init(f, d, rng, np.float64)))
        mid = GcnLayer(Tensor(glorot_init(d, d, rng, np.float64)))
        mid.attach_adapter(make_adapter(d, d, 2, 3.0, rng, np.float64))
        if not zero_b:
            mid.adapter.B.data = rng.standard_normal((2, d)) * 0.1
        new = GcnLayer(Tensor(ly.identity_init(d, np.float64), requires_grad=True))
        head = Tensor(glorot_init(d, c, rng, np.float64), requires_grad=True)
        return LayerStack(layers=[inp, mid, new], head=head, row_normalize=False).check()

    def test_bitwise_equal_when_adapter_is_zero(self, tiny_dataset):
        rng = np.random.default_rng(0)
        stack = self._lora_stack(tiny_dataset.f, 6, tiny_dataset.C, rng, zero_b=True)
        L = normalized_laplacian(tiny_dataset.adjacency)
        Xp = ly.prepare_features(stack, tiny_dataset.X)
        plan = _stage_plan(stack, L, ad.spmm(L, Tensor(Xp)).data, None)
        # the frozen layer 0 is folded into the plan; layer 1 starts from S and C
        assert plan.start == 1 and plan.C is not None
        fast = ly.stack_forward(stack, L, Xp, prepared=True, plan=plan).data
        plain = ly.stack_forward(stack, L, Xp, prepared=True).data
        assert np.array_equal(fast, plain)

    def test_close_when_adapter_nonzero(self, tiny_dataset):
        rng = np.random.default_rng(1)
        stack = self._lora_stack(tiny_dataset.f, 6, tiny_dataset.C, rng, zero_b=False)
        L = normalized_laplacian(tiny_dataset.adjacency)
        Xp = ly.prepare_features(stack, tiny_dataset.X)
        plan = _stage_plan(stack, L, ad.spmm(L, Tensor(Xp)).data, None)
        fast = ly.stack_forward(stack, L, Xp, prepared=True, plan=plan).data
        plain = ly.stack_forward(stack, L, Xp, prepared=True).data
        assert np.allclose(fast, plain, rtol=1e-9, atol=1e-12)

    def test_dropout_disables_caches(self, tiny_dataset):
        rng = np.random.default_rng(2)
        stack = self._lora_stack(tiny_dataset.f, 6, tiny_dataset.C, rng, zero_b=False)
        stack.dropout_p = 0.4
        L = normalized_laplacian(tiny_dataset.adjacency)
        # train forms no L @ Xp for a conv stack under dropout
        assert _stage_plan(stack, L, None, None) is None


def _random_stage_stack(rng, f, d, c, stage, pairnorm, lora, merged):
    """A float64 stack as staged training holds it at ``stage``, with trained-looking adapters.

    ``merged[i]`` folds frozen layer i's adapter into its weight, as a stage end does.
    """
    frozen = []
    for i in range(stage - 1):
        layer = GcnLayer(Tensor(glorot_init(f if i == 0 else d, d, rng, np.float64)))
        if lora:
            layer.attach_adapter(make_adapter(layer.d_in, d, 2, 3.0, rng, np.float64))
            layer.adapter.B.data = rng.standard_normal((2, d)) * 0.1
            if merged[i]:
                layer.merge_adapter()
        frozen.append(layer)
    d_in = f if stage == 1 else d
    new = GcnLayer(Tensor(glorot_init(d_in, d, rng, np.float64), requires_grad=True))
    return LayerStack(
        layers=frozen + [new],
        head=Tensor(glorot_init(d, c, rng, np.float64), requires_grad=True),
        pairnorm_s=1.5 if pairnorm else None, row_normalize=False,
    ).check()


def _loss_and_grads(stack, logits, labels, train_idx):
    params = stack.trainable_parameters()
    for p in params:
        p.grad = None
    loss = ad.masked_cross_entropy(ad.log_softmax_rows(logits), labels, train_idx)
    loss.backward()
    return float(loss.data), [p.grad for p in params]


class TestCachedForwardOracle:
    """The stage plan and the hoisted L @ Xp against plain ``stack_forward``."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        stage=st.integers(1, 4),
        pairnorm=st.booleans(),
        lora=st.booleans(),
        merged=st.lists(st.booleans(), min_size=3, max_size=3),
    )
    def test_loss_and_gradients_match_plain_forward(self, seed, stage, pairnorm, lora,
                                                    merged):
        rng = np.random.default_rng(seed)
        n, f, d, c = 14, 9, 5, 3
        L = normalized_laplacian(random_graph(rng, n))
        Xp = rng.standard_normal((n, f))
        labels = rng.integers(0, c, n)
        train_idx = rng.choice(n, 6, replace=False)
        stack = _random_stage_stack(rng, f, d, c, stage, pairnorm, lora, merged)
        LX = ad.spmm(L, Tensor(Xp)).data

        plain = _loss_and_grads(
            stack, ly.stack_forward(stack, L, Xp, training=True, prepared=True),
            labels, train_idx)
        plan = _stage_plan(stack, L, LX, None)
        # from stage 2 on, layer 0 is frozen and leaves the per-epoch forward:
        # the plan starts past it, or its product with W0 is the plan's C
        assert (plan.start > 0 or plan.C is not None) == (stage > 1)
        fast = {
            "cached": ly.stack_forward(stack, L, Xp, training=True, prepared=True, plan=plan),
            "standard": ly.stack_forward(stack, L, Xp, training=True, prepared=True,
                                         plan=ly.ForwardPlan(inp=LX)),
        }
        for name, logits in fast.items():
            loss, grads = _loss_and_grads(stack, logits, labels, train_idx)
            assert loss == pytest.approx(plain[0], rel=1e-12, abs=1e-12), name
            for g, g_ref in zip(grads, plain[1], strict=True):
                np.testing.assert_allclose(g, g_ref, rtol=1e-9, atol=1e-12, err_msg=name)

    def test_lx_rejected_where_dropout_precedes_layer_0(self, tiny_dataset):
        f = tiny_dataset.f
        L = normalized_laplacian(tiny_dataset.adjacency)
        for hidden in (f, f + 3, f - 1):
            rng = np.random.default_rng(0)
            stack = _random_stage_stack(rng, f, hidden, 2, 1, False, False, [])
            stack.dropout_p = 0.5
            Xp = ly.prepare_features(stack, tiny_dataset.X)
            plan = ly.ForwardPlan(inp=ad.spmm(L, Tensor(Xp)).data)
            with pytest.raises(ValueError, match="dropout"):
                ly.stack_forward(stack, L, Xp, training=True, rng=rng, prepared=True,
                                 plan=plan)
            # an eval forward applies no dropout, so L @ Xp stands in: exactly where
            # layer 0 does not narrow, since the plan-less forward also forms
            # (L @ Xp) @ W; up to rounding where it narrows and forms L @ (Xp @ W)
            planned = ly.stack_forward(stack, L, Xp, prepared=True, plan=plan).data
            plain = ly.stack_forward(stack, L, Xp, prepared=True).data
            if hidden >= f:
                assert np.array_equal(planned, plain), hidden
            else:
                np.testing.assert_allclose(planned, plain, rtol=1e-12)


class TestReportSerialization:
    def test_json_roundtrip(self, tiny_dataset):
        _, report = train(tiny_dataset, make_cfg(depth=2, max_epochs=4, patience=4),
                          trainer="standard", variant="gcn")
        assert json.loads(report.to_json()) == dataclasses.asdict(report)

    def test_dispatcher(self, tiny_dataset):
        cfg = make_cfg(depth=1, max_epochs=2, patience=2)
        _, r1 = train(tiny_dataset, cfg, trainer="standard", variant="gcn")
        assert len(r1.stages) == 1
        _, r2 = train(tiny_dataset, cfg, trainer="lgt", variant="gcn")
        assert len(r2.stages) == 1
        with pytest.raises(ValueError, match="trainer"):
            train(tiny_dataset, cfg, trainer="sgd")


def _fit_two_forwards(forward, mutable, groups, target, cfg, dropout_p):
    """Reference epoch loop: a training and an eval forward every epoch, at any dropout."""
    adam = Adam(groups)
    stopper = EarlyStopper(cfg.patience)
    best_snap = None
    curve = []
    labels, train_idx, val_idx = target
    for _ in range(cfg.max_epochs):
        logits = forward(True)
        loss = ad.masked_cross_entropy(ad.log_softmax_rows(logits), labels, train_idx)
        if not np.isfinite(loss.data):
            raise NumericalAbort(f"non-finite training loss at epoch {len(curve) + 1}")
        adam.zero_grad()
        loss.backward()
        adam.step()
        curve.append(float(loss.data))
        val_acc = _accuracy(forward(False).data, labels, val_idx)
        if val_acc > stopper.best:
            best_snap = _snapshot(mutable)
        if stopper.update(val_acc):
            break
    if best_snap is not None:
        _restore(mutable, best_snap)
    return StageReport(
        epochs_run=len(curve),
        best_val_acc=float(stopper.best),
        train_loss=curve,
        wall_clock_seconds=0.0,
    )


def _run(monkeypatch, fit, trainer, variant, cfg, data):
    """Train with ``fit`` as the epoch loop; also returns (epochs, forwards) per stage."""
    counts = []

    def counting_fit(forward, *args):
        calls = [0]

        def counted(training):
            calls[0] += 1
            return forward(training)

        stage = fit(counted, *args)
        counts.append((stage.epochs_run, calls[0]))
        return stage

    with monkeypatch.context() as m:
        m.setattr(gtrain, "_fit", counting_fit)
        stack, report = train(data, cfg, trainer=trainer, variant=variant)
    return stack, report, counts


class TestOneForwardPerEpoch:
    @pytest.mark.parametrize("trainer, variant, dropout_p", [
        ("lgt", "gcn", None),
        ("lgt", "gcn+pairnorm", None),
        ("lgt", "gcn", 0.3),
        ("standard", "gcn+pairnorm", 0.0),
        ("standard", "gcn", 0.5),
    ])
    def test_matches_two_forward_oracle(self, monkeypatch, small_sbm, trainer, variant,
                                        dropout_p):
        cfg = TrainConfig(depth=4, hidden_dim=8, lora_rank=2, max_epochs=40, patience=6,
                          dropout_p=dropout_p, seed=3)
        s_new, r_new, counts = _run(monkeypatch, gtrain._fit, trainer, variant, cfg,
                                    small_sbm)
        s_ref, r_ref, _ = _run(monkeypatch, _fit_two_forwards, trainer, variant, cfg,
                               small_sbm)
        for st_new, st_ref in zip(r_new.stages, r_ref.stages, strict=True):
            st_new.wall_clock_seconds = st_ref.wall_clock_seconds = 0.0
            assert st_new == st_ref
        assert r_new.test_acc == r_ref.test_acc
        for a, b in zip(s_new.parameters(), s_ref.parameters(), strict=True):
            assert np.array_equal(a.data, b.data)
        # early stopping fires in some stage, so the trailing forward is covered
        assert any(e < cfg.max_epochs for e, _ in counts)
        if s_new.dropout_p == 0.0:
            assert all(calls == e + 1 for e, calls in counts)
        else:
            assert all(calls == 2 * e for e, calls in counts)

    def test_peak_memory_under_dropout_not_above_oracle(self, monkeypatch, small_sbm):
        # the eval graph must not live on into the next epoch's forward and backward
        cfg = TrainConfig(depth=8, hidden_dim=32, max_epochs=6, patience=6,
                          dropout_p=0.5, seed=1)
        _run(monkeypatch, gtrain._fit, "standard", "gcn", cfg, small_sbm)  # warm-up
        peaks = {}
        for name, fit in (("new", gtrain._fit), ("oracle", _fit_two_forwards)):
            tracemalloc.start()
            try:
                _run(monkeypatch, fit, "standard", "gcn", cfg, small_sbm)
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # bookkeeping allocations differ by a few hundred bytes; a lingering
        # graph holds several float32 n x d activations per layer
        activation = small_sbm.n * cfg.hidden_dim * 4
        assert peaks["new"] <= peaks["oracle"] + activation


class TestInputPropagationOnce:
    """At dropout 0, L @ Xp is formed once per training call and the results stay bitwise."""

    @staticmethod
    def _run(monkeypatch, data, cfg, trainer, variant, hoist):
        spmm_calls = [0]
        spmm = ad.spmm

        def counting_spmm(s, x, **kw):
            spmm_calls[0] += 1
            return spmm(s, x, **kw)

        stack_fwd = ly.stack_forward

        def recomputing_forward(stack, L, Xp, *, plan=None, **kw):
            # a plan that starts at layer 0 holds L @ Xp (on the cone's rows, and
            # with C = (L @ Xp) @ W0 for an adapter); form both anew on every call
            if plan is not None and plan.start == 0 and stack.layers:
                inp = ad.spmm(L, Tensor(Xp)).data
                if plan.cone is not None:
                    inp = inp[plan.cone.rows(len(stack.layers) - 1)]
                C = None if plan.C is None else inp @ stack.layers[0].W.data
                plan = ly.ForwardPlan(0, inp, C, plan.cone)
            return stack_fwd(stack, L, Xp, plan=plan, **kw)

        with monkeypatch.context() as m:
            m.setattr(ad, "spmm", counting_spmm)
            if not hoist:
                m.setattr(ly, "stack_forward", recomputing_forward)
            stack, report = train(data, cfg, trainer=trainer, variant=variant)
        return stack, report, spmm_calls[0]

    @pytest.mark.parametrize("trainer, variant, use_lora", [
        ("lgt", "gcn", True),
        ("lgt", "gcn+pairnorm", False),
        ("standard", "gcn+pairnorm", True),
    ])
    def test_matches_recomputing_oracle(self, monkeypatch, trainer, variant, use_lora):
        wide = generate_sbm(3, 30, 0.2, 0.02, f=120, signal=2.0, seed=4)
        cfg = TrainConfig(depth=4, hidden_dim=8, lora_rank=2, max_epochs=12, patience=5,
                          dropout_p=0.0, use_lora=use_lora, seed=2)
        s_new, r_new, calls_new = self._run(monkeypatch, wide, cfg, trainer, variant, True)
        s_ref, r_ref, calls_ref = self._run(monkeypatch, wide, cfg, trainer, variant, False)
        r_new.total_wall_clock = r_ref.total_wall_clock = 0.0
        for st_new, st_ref in zip(r_new.stages, r_ref.stages, strict=True):
            st_new.wall_clock_seconds = st_ref.wall_clock_seconds = 0.0
        assert r_new == r_ref
        for a, b in zip(s_new.parameters(), s_ref.parameters(), strict=True):
            assert np.array_equal(a.data, b.data)
        # the oracle forms L @ Xp in every forward that starts at layer 0; the
        # hoist forms it once per call
        assert calls_new < calls_ref


def _graph_with_components(rng, n, isolated):
    """Two random components and ``isolated`` nodes without edges, in shuffled order."""
    perm = rng.permutation(n)
    cut = int(rng.integers(2, n - isolated - 1))
    pairs = []
    for block in (perm[:cut], perm[cut:n - isolated]):
        pairs += [(int(a), int(b)) for i, a in enumerate(block) for b in block[i + 1:]
                  if rng.random() < 0.35]
    return build_adjacency(pairs, n), perm[n - isolated:]


class TestRowConeOracle:
    """The cone-restricted stage forward against plain ``stack_forward``, in float64."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        stage=st.integers(1, 4),
        lora=st.booleans(),
        merged=st.lists(st.booleans(), min_size=3, max_size=3),
        every_row=st.booleans(),
        dropout=st.booleans(),
    )
    def test_rows_loss_and_gradients_match_plain_forward(self, seed, stage, lora, merged,
                                                         every_row, dropout):
        rng = np.random.default_rng(seed)
        n, f, d, c = 16, 7, 5, 3
        adjacency, isolated = _graph_with_components(rng, n, int(rng.integers(1, 4)))
        L = normalized_laplacian(adjacency)
        Xp = rng.standard_normal((n, f))
        labels = rng.integers(0, c, n)
        start = np.arange(n) if every_row else np.sort(rng.choice(n, int(rng.integers(1, 5)),
                                                                  replace=False))
        train_idx = np.sort(rng.choice(start, max(1, start.size // 2), replace=False))
        stack = _random_stage_stack(rng, f, d, c, stage, False, lora, merged)
        stack.dropout_p = 0.3 if dropout else 0.0
        cone = RowCone(L, start, 4)

        dense = L.to_dense()
        for j in range(stage):
            rows, nxt = cone.rows(j), cone.rows(j + 1)
            assert np.array_equal(nxt, np.flatnonzero(dense[rows].any(axis=0)))
            np.testing.assert_array_equal(cone.op(j).to_dense(), dense[np.ix_(rows, nxt)])
        unreached = np.setdiff1d(isolated, start)
        # an isolated node outside the start rows is never reached: the cone closes early
        assert not np.isin(unreached, cone.rows(4)).any()

        # under dropout both forwards draw the same masks from equal rngs
        rng_plain, rng_cone = np.random.default_rng(seed), np.random.default_rng(seed)
        plain_logits = ly.stack_forward(stack, L, Xp, training=True, rng=rng_plain,
                                        prepared=True)
        plain = _loss_and_grads(stack, plain_logits, labels, train_idx)
        # train forms no L @ Xp for a conv stack under dropout
        LX = None if dropout else ad.spmm(L, Tensor(Xp)).data
        plan = _stage_plan(stack, L, LX, cone)
        # under dropout the plan holds only the cone, and the forward starts at the input
        assert (plan.inp is None) == dropout
        logits = ly.stack_forward(stack, L, Xp, training=True, rng=rng_cone, prepared=True,
                                  plan=plan)
        assert rng_cone.bit_generator.state == rng_plain.bit_generator.state
        assert logits.data.shape == (start.size, c)
        np.testing.assert_allclose(logits.data, plain_logits.data[start], rtol=1e-12,
                                   atol=1e-12)
        loss, grads = _loss_and_grads(stack, logits, labels[start],
                                      np.searchsorted(start, train_idx))
        assert loss == pytest.approx(plain[0], rel=1e-12, abs=1e-12)
        for g, g_ref in zip(grads, plain[1], strict=True):
            np.testing.assert_allclose(g, g_ref, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("dropout_p", [0.0, 0.4])
    def test_propagation_only_stack(self, dropout_p):
        rng = np.random.default_rng(5)
        n, f, c, steps = 18, 6, 3, 3
        L = normalized_laplacian(random_graph(rng, n))
        Xp = rng.standard_normal((n, f))
        stack = LayerStack(sgc_steps=steps, dropout_p=dropout_p,
                           head=Tensor(glorot_init(f, c, rng, np.float64), requires_grad=True),
                           row_normalize=False).check()
        cone = RowCone(L, [2, 9, 11], steps)
        rng_plain, rng_cone = np.random.default_rng(0), np.random.default_rng(0)
        plain = ly.stack_forward(stack, L, Xp, training=True, rng=rng_plain, prepared=True)
        logits = ly.stack_forward(stack, L, Xp, training=True, rng=rng_cone, prepared=True,
                                  plan=ly.ForwardPlan(cone=cone))
        assert rng_cone.bit_generator.state == rng_plain.bit_generator.state
        np.testing.assert_allclose(logits.data, plain.data[cone.rows(0)], rtol=1e-12,
                                   atol=1e-12)

    @pytest.mark.parametrize("use_cone", [False, True])
    @pytest.mark.parametrize("dropout_p", [0.0, 0.5])
    def test_stage_plan_of_propagation_only_stack(self, dropout_p, use_cone):
        rng = np.random.default_rng(6)
        n, f, c, steps = 18, 6, 3, 3
        L = normalized_laplacian(random_graph(rng, n))
        Xp = rng.standard_normal((n, f))
        stack = LayerStack(sgc_steps=steps, dropout_p=dropout_p,
                           head=Tensor(glorot_init(f, c, rng, np.float64), requires_grad=True),
                           row_normalize=False).check()
        cone = RowCone(L, [1, 4, 12], 0) if use_cone else None
        rows = cone.rows(0) if use_cone else np.arange(n)
        LKX = ly.sgc_propagate(L, Xp, steps)
        plan = _stage_plan(stack, L, LKX, cone)
        # at any dropout the plan starts at the head, from L^K Xp on the cone's rows (all
        # rows without a cone)
        assert plan.cone is cone and plan.C is None
        assert np.array_equal(plan.inp, LKX[rows])
        rng_plain, rng_plan = np.random.default_rng(0), np.random.default_rng(0)
        plain = ly.stack_forward(stack, L, Xp, training=True, rng=rng_plain, prepared=True)
        logits = ly.stack_forward(stack, L, Xp, training=True, rng=rng_plan, prepared=True,
                                  plan=plan)
        assert rng_plan.bit_generator.state == rng_plain.bit_generator.state
        np.testing.assert_allclose(logits.data, plain.data[rows], rtol=1e-12,
                                   atol=1e-12)

    def test_pairnorm_stack_refuses_a_cone(self, tiny_dataset):
        rng = np.random.default_rng(0)
        stack = _random_stage_stack(rng, tiny_dataset.f, 4, 2, 2, True, True, [False])
        L = normalized_laplacian(tiny_dataset.adjacency)
        Xp = ly.prepare_features(stack, tiny_dataset.X)
        with pytest.raises(ValueError, match="PairNorm"):
            _stage_plan(stack, L, ad.spmm(L, Tensor(Xp)).data, RowCone(L, [0], 2))


class TestTrainingForwardGradients:
    """Finite differences through the stage forward under dropout, in float64: the head
    input's mask (``layers.dropout``) and each conv layer's ``keep`` along one chain."""

    @pytest.mark.parametrize("pairnorm", [False, True], ids=["cone", "pairnorm"])
    def test_dropout_chain_matches_finite_differences(self, pairnorm):
        rng = np.random.default_rng(5)
        n, f, d, c = 12, 6, 4, 3
        L = normalized_laplacian(random_graph(rng, n))
        Xp = rng.standard_normal((n, f))
        labels = rng.integers(0, c, n)
        rows = np.sort(rng.choice(n, 6, replace=False))
        stack = _random_stage_stack(rng, f, d, c, 3, pairnorm, True, [False, False])
        stack.dropout_p = 0.3
        # PairNorm centres over every row, so its stack runs without a cone
        cone = None if pairnorm else RowCone(L, rows, stack.depth)
        plan = _stage_plan(stack, L, None, cone)
        assert (plan is None) == pairnorm
        if cone is not None:
            labels = labels[rows]
        train_idx = np.arange(0, labels.size, 2)

        def f():
            # a fresh generator per call: every probe draws the same masks
            logits = ly.stack_forward(stack, L, Xp, training=True, rng=np.random.default_rng(9),
                                      prepared=True, plan=plan)
            return ad.masked_cross_entropy(ad.log_softmax_rows(logits), labels, train_idx)

        params = stack.trainable_parameters()
        assert len(params) == 6  # the new layer, two adapters and the head
        assert ad.grad_check(f, params) < 1e-6


def _graph_arrays(loss, params, dead=frozenset()):
    """Every distinct array on a backward-ed graph: each node's gradient, and its value
    unless its id is in ``dead`` (a conv output the forward gave back to the workspace),
    then each of ``params``' value and gradient, which the walk down ``_prev`` never reaches."""
    arrays, nodes = {}, []
    node = loss
    while node is not None:
        nodes.append(node)
        node = node._prev
    for t in nodes + list(params):
        for a in (None if id(t.data) in dead else t.data, t.grad):
            if a is not None:
                arrays[id(a)] = a
    return list(arrays.values())


class TestWorkspaceOracle:
    """Forward/backward cycles through one ``autodiff.Workspace`` against ``ws=None``."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        stage=st.integers(1, 4),
        lora=st.booleans(),
        use_cone=st.booleans(),
        pairnorm=st.booleans(),
        dropout=st.booleans(),
        merged=st.lists(st.booleans(), min_size=3, max_size=3),
    )
    # PairNorm and dropout each read a conv output that the forward then gives back
    @example(seed=7, stage=4, lora=True, use_cone=False, pairnorm=True, dropout=True,
             merged=[False, True, False])
    @example(seed=8, stage=4, lora=False, use_cone=False, pairnorm=True, dropout=False,
             merged=[False] * 3)
    @example(seed=9, stage=4, lora=True, use_cone=True, pairnorm=False, dropout=True,
             merged=[False] * 3)
    def test_two_cycles_match_allocating_ops(self, seed, stage, lora, use_cone, pairnorm,
                                             dropout, merged):
        rng = np.random.default_rng(seed)
        n, f, d, c = 16, 7, 5, 3
        L = normalized_laplacian(random_graph(rng, n))
        Xp = rng.standard_normal((n, f))
        labels = rng.integers(0, c, n)
        rows = np.sort(rng.choice(n, 6, replace=False))
        train_idx = rows[::2]
        stack = _random_stage_stack(rng, f, d, c, stage, pairnorm, lora, merged)
        stack.dropout_p = 0.3 if dropout else 0.0
        # a cone needs a stack without PairNorm
        cone = RowCone(L, rows, 4) if use_cone and not pairnorm else None
        LX = None if dropout else ad.spmm(L, Tensor(Xp)).data
        plan = _stage_plan(stack, L, LX, cone)
        if cone is not None:
            labels, train_idx = labels[rows], np.searchsorted(rows, train_idx)
        params = stack.trainable_parameters()

        def cycle(ws):
            if ws is not None:
                ws.reset()
            logits = ly.stack_forward(stack, L, Xp, training=True,
                                      rng=np.random.default_rng(seed), prepared=True,
                                      plan=plan, ws=ws)
            # given back and not taken again: only these may a live array still share
            dead = set() if ws is None else {id(b) for bufs in ws._free.values() for b in bufs}
            for p in params:
                p.grad = None
            loss = ad.masked_cross_entropy(ad.log_softmax_rows(logits), labels, train_idx)
            loss.backward()
            # copies: the next cycle through ws overwrites the gradients
            return loss, [p.grad.copy() for p in params], dead

        ref_loss, ref_grads, _ = cycle(None)
        ws = ad.Workspace()
        loss1, grads1, _ = cycle(ws)
        n_buffers = len(ws)
        logits1 = loss1._prev._prev.data
        loss2, grads2, dead = cycle(ws)
        assert n_buffers > 0 and len(ws) == n_buffers
        # the second cycle wrote into the first one's arrays
        assert loss2._prev._prev.data is logits1
        for loss, grads in ((loss1, grads1), (loss2, grads2)):
            assert float(loss.data) == float(ref_loss.data)
            for g, g_ref in zip(grads, ref_grads, strict=True):
                assert np.array_equal(g, g_ref)
        # the live arrays share no memory; the conv outputs the forward gave back may
        arrays = _graph_arrays(loss2, stack.parameters(), dead)
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60),
           d=st.sampled_from([1, 5, 40, 300]), p=st.sampled_from([0.1, 0.5]),
           every_row=st.booleans(), bit_generator=st.sampled_from(BIT_GENERATORS),
           data=st.data())
    def test_masks_drawn_into_buffers_match_allocating_draws(self, seed, n, d, p, every_row,
                                                             bit_generator, data):
        # the oracle is the full allocating draw; few rows of a wide input take
        # the path that skips the unused draws
        rows = None if every_row else np.array(
            sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))), dtype=np.int64)
        shape = (n if rows is None else rows.size, d)
        ws = ad.Workspace()
        for _ in range(2):  # the second cycle draws into the first one's buffers
            ws.reset()
            rng = np.random.Generator(bit_generator(seed))
            ref = np.random.Generator(bit_generator(seed))
            keep = ly._keep_mask(shape, p, True, rng, rows, n, ws)
            draw = ref.random((n, d))
            assert np.array_equal(keep, (draw if rows is None else draw[rows]) >= p)
            assert same_state(rng.bit_generator.state, ref.bit_generator.state)
        # the allocating path of the same draw agrees too
        rng = np.random.Generator(bit_generator(seed))
        assert np.array_equal(keep, ly._keep_mask(shape, p, True, rng, rows, n, None))
        assert same_state(rng.bit_generator.state, ref.bit_generator.state)

    @pytest.mark.parametrize("kernel", [True, False])
    @pytest.mark.parametrize("cols", [1, 4])
    def test_spmm_into_buffers_matches_scipy(self, monkeypatch, kernel, cols):
        rng = np.random.default_rng(3)
        L = normalized_laplacian(random_graph(rng, 11))
        x = Tensor(rng.standard_normal((11, cols)).astype(np.float32), requires_grad=True)
        if not kernel:
            monkeypatch.setattr(ad, "_CSR_MATVECS", None)
        ws = ad.Workspace()
        ws.take((11, cols), np.float32).fill(np.nan)  # stale contents the op must clear
        ws.reset()
        out = ad.spmm(L, x, ws=ws)
        assert np.array_equal(out.data, L.to_scipy(np.float32) @ x.data)
        g = rng.standard_normal((11, cols)).astype(np.float32)
        out._backward(g)
        assert np.array_equal(x.grad, L.to_scipy(np.float32).T @ g)

    @pytest.mark.parametrize("trainer, variant, dropout_p", [
        ("lgt", "gcn", None),
        ("lgt", "gcn", 0.3),
        ("lgt", "gcn+pairnorm", None),
        ("lgt", "gcn+pairnorm", 0.3),
        ("standard", "gcn", 0.0),
        ("standard", "gcn+pairnorm", 0.5),
        ("standard", "sgc", 0.5),
    ])
    def test_trainers_match_fresh_buffers(self, monkeypatch, small_sbm, trainer, variant,
                                          dropout_p):
        # the oracle never reuses a buffer, and it fills each one with NaN, so an
        # array read after the next forward or before its write shows up
        cfg = TrainConfig(depth=3, hidden_dim=8, lora_rank=2, max_epochs=10, patience=4,
                          dropout_p=dropout_p, seed=2)
        s_new, r_new = train(small_sbm, cfg, trainer=trainer, variant=variant)
        with monkeypatch.context() as m:
            m.setattr(ad.Workspace, "take", lambda self, shape, dtype:
                      np.full(shape, np.nan, dtype))
            s_ref, r_ref = train(small_sbm, cfg, trainer=trainer, variant=variant)
        r_new.total_wall_clock = r_ref.total_wall_clock = 0.0
        for st_new, st_ref in zip(r_new.stages, r_ref.stages, strict=True):
            st_new.wall_clock_seconds = st_ref.wall_clock_seconds = 0.0
        assert r_new == r_ref
        for a, b in zip(s_new.parameters(), s_ref.parameters(), strict=True):
            assert np.array_equal(a.data, b.data)
        # no parameter keeps a gradient that lives in a released buffer
        assert all(p.grad is None for p in s_new.parameters())

    @pytest.mark.parametrize("trainer, dropout_p", [("lgt", None), ("standard", 0.5)])
    def test_trainer_buffers_do_not_grow_with_epochs(self, monkeypatch, small_sbm, trainer,
                                                     dropout_p):
        made = []

        class Recorded(ad.Workspace):
            def __init__(self):
                super().__init__()
                made.append(self)

        sizes = []
        for epochs in (3, 7):
            cfg = TrainConfig(depth=2, hidden_dim=8, lora_rank=2, max_epochs=epochs,
                              patience=epochs, dropout_p=dropout_p, seed=2)
            with monkeypatch.context() as m:
                m.setattr(ad, "Workspace", Recorded)
                train(small_sbm, cfg, trainer=trainer)
            sizes.append(len(made[-1]))
        # one workspace per call, and each forward reuses the previous cycle's buffers
        assert len(made) == 2 and sizes[0] == sizes[1] > 0


class TestActivationMemory:
    """A conv layer keeps its propagated input and two bool masks, and little else, per step."""

    @pytest.mark.parametrize("trainer, dropout_p", [("lgt", 0.0), ("standard", 0.5)])
    def test_traced_peak_per_added_layer(self, trainer, dropout_p):
        data = generate_sbm(2, 1000, 0.003, 0.0003, f=16, signal=2.0, seed=3)
        # train and val hold almost every node, so every layer computes every row
        idx = np.random.default_rng(0).permutation(data.n)
        data = data.with_splits(Splits(train=idx[:900], val=idx[900:1980], test=idx[1980:]))
        peaks = []
        for depth in (8, 16):
            cfg = TrainConfig(depth=depth, hidden_dim=32, lora_rank=2, max_epochs=2,
                              patience=2, dropout_p=dropout_p, seed=0)
            tracemalloc.start()
            try:
                train(data, cfg, trainer=trainer)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # in float32 n x d arrays: one, plus the bool ReLU and dropout masks; with the
        # output kept too it read 1.5 (staged) and 2.3 (under dropout), and six ops per
        # layer kept about 6.4 and 11.4
        assert (peaks[1] - peaks[0]) / 8 / (data.n * 32 * 4) <= 1.75

    @pytest.mark.parametrize("dropout_p", [0.0, 0.3])
    def test_warm_staged_cycle_per_layer(self, dropout_p):
        data = generate_sbm(2, 1000, 0.003, 0.0003, f=16, signal=2.0, seed=3)
        L = normalized_laplacian(data.adjacency)
        n, d = data.n, 16
        rng = np.random.default_rng(0)
        peaks = []
        for depth in (4, 8):
            # every frozen layer has an adapter, so the plan starts at layer 0 and
            # every layer computes every row
            stack = _random_stage_stack(np.random.default_rng(depth), 16, d, 2, depth, False,
                                        True, [False] * depth)
            stack.dropout_p = dropout_p
            LX = None if dropout_p else ad.spmm(L, Tensor(data.X)).data
            plan = _stage_plan(stack, L, LX, None)
            params = stack.trainable_parameters()
            ws = ad.Workspace()
            tracemalloc.start()
            try:
                for cycle in range(2):
                    ws.reset()
                    logits = ly.stack_forward(stack, L, data.X, training=True, rng=rng,
                                              prepared=True, plan=plan, ws=ws)
                    for p in params:
                        p.grad = None
                    ad.masked_cross_entropy(ad.log_softmax_rows(logits), data.labels,
                                            data.splits.train).backward()
                    if cycle == 0:
                        n_buffers = len(ws)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            del logits
            assert len(ws) == n_buffers  # the warm cycle allocates nothing
        # per layer: the propagated input (float64 here), the bool ReLU mask and, under
        # dropout, the bool dropout mask, plus d x d arrays; keeping the output too
        # took 8 bytes an entry more
        per_entry = (peaks[1] - peaks[0]) / 4 / (n * d)
        assert per_entry <= (8 + 1 + (dropout_p > 0)) * 1.05


def _sparse_split_bundle():
    """A low-degree SBM whose train and val nodes are 35 of its 300 nodes."""
    data = generate_sbm(3, 100, 0.03, 0.003, f=12, signal=2.0, seed=5)
    s = data.splits
    return dataclasses.replace(data, splits=Splits(train=s.train[::4], val=s.val[::6],
                                                   test=s.test))


def _float64_inits(m):
    """Make the trainers build float64 stacks: each init's trailing dtype becomes float64."""
    for name in ("glorot_init", "identity_init", "make_adapter"):
        m.setattr(ly, name, lambda *a, _init=getattr(ly, name): _init(*a[:-1], np.float64))


class TestRestrictedTrainer:
    """The trainers on the row cone against their full-forward selves, in float64."""

    @staticmethod
    def _run(monkeypatch, data, cfg, trainer, variant, restrict):
        flops = {"spmm": 0, "matmul": 0}
        spmm, matmul, gcn_layer = ad.spmm, ad.matmul, ad.gcn_layer

        def counting_spmm(s, x, **kw):
            flops["spmm"] += 2 * s.nnz * x.data.shape[1]
            return spmm(s, x, **kw)

        def counting_matmul(x, w, **kw):
            flops["matmul"] += 2 * x.data.shape[0] * x.data.shape[1] * w.data.shape[1]
            return matmul(x, w, **kw)

        def counting_layer(op, h, W, *a, **kw):
            # a conv layer's propagation, and its product counted as the dense
            # rows x d_in x d_out product it stands for
            rows = h.data.shape[0] if op is None else op.n_rows
            if op is not None:
                flops["spmm"] += 2 * op.nnz * h.data.shape[1]
            flops["matmul"] += 2 * rows * W.data.shape[0] * W.data.shape[1]
            return gcn_layer(op, h, W, *a, **kw)

        with monkeypatch.context() as m:
            _float64_inits(m)
            m.setattr(ad, "spmm", counting_spmm)
            m.setattr(ad, "matmul", counting_matmul)
            m.setattr(ad, "gcn_layer", counting_layer)
            if not restrict:
                # the oracle: every forward runs over every node
                m.setattr(gtrain, "_row_cone", lambda *a: None)
            stack, report = train(data, cfg, trainer=trainer, variant=variant)
        assert all(p.data.dtype == np.float64 for p in stack.parameters())
        return stack, report, flops

    def _check(self, monkeypatch, cfg, trainer, variant):
        """Train on the cone and on the full forward; returns both sides' flops."""
        data = _sparse_split_bundle()
        s_new, r_new, flops_new = self._run(monkeypatch, data, cfg, trainer, variant, True)
        s_ref, r_ref, flops_ref = self._run(monkeypatch, data, cfg, trainer, variant, False)
        assert [st.epochs_run for st in r_new.stages] == [st.epochs_run for st in r_ref.stages]
        assert any(st.epochs_run < cfg.max_epochs for st in r_ref.stages)
        assert r_new.test_acc == r_ref.test_acc
        full_path = variant == "gcn+pairnorm"
        for a, b in zip(s_new.parameters(), s_ref.parameters(), strict=True):
            if full_path:
                assert np.array_equal(a.data, b.data)
            else:
                np.testing.assert_allclose(a.data, b.data, rtol=1e-7, atol=1e-9)
        if full_path:
            # PairNorm centres over every row: the cone is not used at all
            r_new.total_wall_clock = r_ref.total_wall_clock = 0.0
            for st_new, st_ref in zip(r_new.stages, r_ref.stages):
                st_new.wall_clock_seconds = st_ref.wall_clock_seconds = 0.0
            assert r_new == r_ref
            assert flops_new == flops_ref
        else:
            # the cone shortens every dense product, under dropout too
            assert flops_new["matmul"] < flops_ref["matmul"]
        return flops_new, flops_ref

    @pytest.mark.parametrize("variant, dropout_p, use_lora", [
        ("gcn", None, True),
        ("gcn", None, False),
        ("gcn+pairnorm", None, True),
        ("gcn", 0.3, True),
    ])
    def test_matches_full_forward_oracle(self, monkeypatch, variant, dropout_p, use_lora):
        cfg = TrainConfig(depth=5, hidden_dim=8, lora_rank=2, max_epochs=30, patience=8,
                          dropout_p=dropout_p, use_lora=use_lora, seed=1)
        flops_new, flops_ref = self._check(monkeypatch, cfg, "lgt", variant)
        # without LoRA each stage at dropout 0 starts at its new layer from a
        # propagated input, so neither side runs a per-epoch spmm
        if use_lora and variant == "gcn":
            assert flops_new["spmm"] < flops_ref["spmm"]

    @pytest.mark.parametrize("variant, dropout_p", [
        ("gcn", 0.0),
        ("gcn", 0.5),
        ("sgc", 0.5),
        ("gcn+pairnorm", 0.5),
    ])
    def test_standard_matches_full_forward_oracle(self, monkeypatch, variant, dropout_p):
        cfg = TrainConfig(depth=5, hidden_dim=8, max_epochs=30, patience=4,
                          dropout_p=dropout_p, seed=1)
        flops_new, flops_ref = self._check(monkeypatch, cfg, "standard", variant)
        if variant == "gcn":
            assert flops_new["spmm"] < flops_ref["spmm"]
        elif variant == "sgc":
            # the propagation happens once per call, outside the autodiff ops
            assert flops_new["spmm"] == flops_ref["spmm"] == 0


def _plan_bytes(plan, LX):
    """The bytes of the constants a ``ForwardPlan`` holds beside the call's ``LX``."""
    return sum(a.nbytes for a in (plan.inp, plan.C) if a is not None and a is not LX)


class TestFinalForward:
    """The final test accuracy and collapse report come from one ``stack_forward``.

    Training forwards go through ``stack_forward`` too: with a plan at dropout
    0, and under dropout without one for PairNorm (which has no cone).
    """

    @pytest.mark.parametrize("trainer, variant, dropout_p", [
        ("lgt", "gcn", None),
        ("lgt", "gcn+pairnorm", 0.3),
        ("standard", "gcn", 0.0),
        ("standard", "gcn+pairnorm", 0.5),
        ("standard", "sgc", None),
    ])
    def test_matches_evaluate_and_collapse_report(self, monkeypatch, small_sbm, trainer,
                                                  variant, dropout_p):
        cfg = TrainConfig(depth=3, hidden_dim=8, lora_rank=2, max_epochs=10, patience=4,
                          dropout_p=dropout_p, seed=2)
        calls = {"all": 0, "plan-less": 0, "return_hidden": 0}
        stack_fwd = ly.stack_forward

        def counting_forward(*a, **kw):
            calls["all"] += 1
            calls["plan-less"] += kw.get("plan") is None
            calls["return_hidden"] += bool(kw.get("return_hidden"))
            return stack_fwd(*a, **kw)

        with monkeypatch.context() as m:
            m.setattr(ly, "stack_forward", counting_forward)
            stack, report = train(small_sbm, cfg, trainer=trainer, variant=variant)
        # the parent's two final forwards, run after training
        assert report.test_acc == evaluate(stack, small_sbm, small_sbm.splits.test)
        assert report.collapse == collapse_report(stack, small_sbm)
        epochs = report.total_epochs
        assert calls["return_hidden"] == 1
        if stack.dropout_p == 0.0:
            # one training forward per stage plus one per epoch, then the final one
            assert calls["all"] == epochs + len(report.stages) + 1
            # a conv stack's final forward is evaluate's, plan-less; the propagation-only
            # stack's starts from its head input, which is all its collapse report reads
            assert calls["plan-less"] == (0 if stack.sgc_steps else 1)
        else:
            assert calls["all"] == calls["plan-less"] == 2 * epochs + 1

    def test_report_holds_one_head_input(self, monkeypatch):
        # degree about 11, so the report's chunk of edge differences outweighs the
        # depth-8 forward's outputs, which the report need not keep
        data = generate_sbm(2, 1000, 0.01, 0.001, f=16, signal=2.0, seed=3)
        cfg = TrainConfig(depth=8, hidden_dim=16, lora_rank=2, max_epochs=2, patience=2, seed=0)
        before_final = []
        stack_fwd = ly.stack_forward

        def marking_forward(*a, **kw):
            if kw.get("return_hidden"):
                tracemalloc.reset_peak()
                before_final.append(tracemalloc.get_traced_memory()[0])
            return stack_fwd(*a, **kw)

        monkeypatch.setattr(ly, "stack_forward", marking_forward)
        tracemalloc.start()
        try:
            stack, report = train(data, cfg, trainer="lgt")
            final = tracemalloc.get_traced_memory()[1] - before_final[0]
            assert len(before_final) == 1
            H = ly.eval_forward(stack, normalized_laplacian(data.adjacency), data.X,
                                return_hidden=True)[1][-1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert collapse_from_hidden([H], data.adjacency) == report.collapse
            transient = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the logits and a few hundred bytes come on top; each layer kept took one H more
        assert final <= transient + 1.5 * H.nbytes

    def test_sgc_report_holds_no_prepared_features(self, monkeypatch):
        # unnormalised float64 features, so the prepared float32 Xp is a copy as large
        # as the head input L^K @ Xp
        data = generate_sbm(2, 500, 0.01, 0.001, f=300, signal=2.0, seed=3)
        cfg = TrainConfig(depth=2, max_epochs=2, patience=2, row_normalize_features=False,
                          seed=0)
        normalized_laplacian(data.adjacency)  # cached before tracing
        at_report = []
        report_fn = gtrain.collapse_from_hidden

        def marking_report(hidden, adjacency):
            at_report.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            return report_fn(hidden, adjacency)

        monkeypatch.setattr(gtrain, "collapse_from_hidden", marking_report)
        tracemalloc.start()
        try:
            stack, report = train(data, cfg, variant="sgc")
            peak = tracemalloc.get_traced_memory()[1]
            H = ly.sgc_propagate(normalized_laplacian(data.adjacency),
                                 ly.prepare_features(stack, data.X), cfg.depth)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert report_fn([H], data.adjacency) == report.collapse
            transient = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert H.dtype == np.float32 and len(at_report) == 1
        # the head input and the logits; the training run's Xp and plan took 1.6 H more
        assert at_report[0] <= 1.1 * H.nbytes
        # on top, the report's own float64 copy of H or its edge chunk
        assert transient >= 2 * H.nbytes
        assert peak <= at_report[0] + transient + 2**16

    def test_stage_plan_holds_one_stage_of_constants(self, monkeypatch):
        # f is wide against d, so each stage's constants are mostly its cone's rows of L @ Xp
        data = generate_sbm(2, 500, 0.004, 0.0004, f=300, signal=2.0, seed=3)
        cfg = TrainConfig(depth=5, hidden_dim=16, lora_rank=2, max_epochs=2, patience=2,
                          seed=0)
        normalized_laplacian(data.adjacency)
        fit_fn, plan_fn = gtrain._fit, gtrain._stage_plan
        ends, plans, checked = [], [], []

        def marking_fit(*a, **kw):
            stage = fit_fn(*a, **kw)
            ends.append(tracemalloc.get_traced_memory()[0])
            return stage

        def marking_plan(*a, **kw):
            tracemalloc.reset_peak()
            plan = plan_fn(*a, **kw)
            plans.append(_plan_bytes(plan, a[2]))
            if len(plans) > 1:
                # what the last stage ended with, less its constants, plus this stage's
                held = ends[-1] - plans[-2] + plans[-1]
                checked.append((tracemalloc.get_traced_memory()[1], held, plans[-1]))
            return plan

        monkeypatch.setattr(gtrain, "_fit", marking_fit)
        monkeypatch.setattr(gtrain, "_stage_plan", marking_plan)
        tracemalloc.start()
        try:
            train(data, cfg, trainer="lgt")
        finally:
            tracemalloc.stop()
        assert len(checked) == cfg.depth - 1
        for peak, held, plan_bytes in checked:
            # the new layer and adapters take a few kB; the last plan kept took plan_bytes
            assert plan_bytes > 2**17
            assert peak <= held + 2**15
