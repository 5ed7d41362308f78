import csv
import json
import os
import subprocess
import sys
import tempfile
from argparse import Namespace
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import growgcn
from growgcn import cli
from growgcn import data as gdata
from growgcn import layers as ly
from growgcn import metrics as gmetrics
from growgcn import (DataError, generate_sbm, load_bundle, load_checkpoint, save_bundle,
                     save_checkpoint)
from growgcn.data import load_planetoid
from growgcn.cli import UsageError, main
from growgcn.train import TrainConfig, TrainReport

SBM = "classes=2,per_class=25,p_in=0.3,p_out=0.05,f=8,signal=2,seed=0"
FAST = ["--max-epochs", "4", "--patience", "4", "--depth", "2", "--hidden-dim", "8"]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


SETTINGS = cli._settings  # the real helper, which `_settings_of` wraps


def _settings_of(monkeypatch, argv):
    """The ``_settings`` result of a train command, taken before any data loads."""
    seen = []

    def capture(*args):
        seen.append(SETTINGS(*args))
        raise UsageError("settings taken")

    monkeypatch.setattr(cli, "_settings", capture)
    assert main(argv) == 1
    assert len(seen) == 1
    return seen[0]


def _config_settings(monkeypatch, tmp_path, text, *flags):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    return _settings_of(monkeypatch, ["train", "--sbm", SBM, "--config", str(cfg), *flags,
                                      "--out", str(tmp_path / "x")])


# config key: (value in a config file, the flags that set the same value)
CONFIG_ROUTES = {
    "depth": ("3", ["--depth", "3"]),
    "hidden_dim": ("16", ["--hidden-dim", "16"]),
    "lr": ("0.5", ["--lr", "0.5"]),
    "weight_decay": ("0", ["--weight-decay", "0"]),
    "dropout_p": ("0", ["--dropout", "0"]),
    "max_epochs": ("7", ["--max-epochs", "7"]),
    "patience": ("3", ["--patience", "3"]),
    "lora_rank": ("2", ["--rank", "2"]),
    "seed": ("4", ["--seed", "4"]),
    "use_lora": ("no", ["--no-lora"]),
    "new_layer_init": ("glorot", ["--new-layer-init", "glorot"]),
    "pairnorm_s": ("2", ["--pairnorm-s", "2"]),
    "row_normalize_features": ("0", ["--no-row-normalize"]),
    "trainer": ("lgt", ["--trainer", "lgt"]),
    "variant": ("gcn+pairnorm", ["--variant", "gcn+pairnorm"]),
    "repeats": ("2", ["--repeats", "2"]),
    "fixed_splits": ("yes", ["--fixed-splits"]),
}


def test_config_routes_cover_every_setting():
    assert set(CONFIG_ROUTES) == {f.name for f in fields(TrainConfig)} | {
        "trainer", "variant", "repeats", "fixed_splits"}


@pytest.mark.parametrize("key", list(CONFIG_ROUTES))
def test_config_key_gives_the_settings_of_its_flag(monkeypatch, tmp_path, key):
    # repr tells 0 from 0.0, which a checkpoint header keeps
    value, flags = CONFIG_ROUTES[key]
    via_file = _config_settings(monkeypatch, tmp_path, f"{key} = {value}\n")
    via_flags = _settings_of(monkeypatch, ["train", "--sbm", SBM, *flags,
                                           "--out", str(tmp_path / "x")])
    default = _settings_of(monkeypatch, ["train", "--sbm", SBM, "--out", str(tmp_path / "x")])
    assert repr(via_file) == repr(via_flags) != repr(default)


class TestConfigFile:
    def test_parse_types_and_comments(self, monkeypatch, tmp_path):
        cfg, trainer, *_ = _config_settings(
            monkeypatch, tmp_path,
            "# a comment\n"
            "depth = 4\n"
            "lr = 0.005  # inline comment\n"
            "use_lora = false\n"
            "dropout_p = 0.3\n"
            "dropout_p = none\n"
            "trainer = lgt\n"
            "\n")
        assert (cfg.depth, cfg.lr, cfg.use_lora, cfg.dropout_p) == (4, 0.005, False, None)
        assert trainer == "lgt"

    def test_unknown_key(self, tmp_path, capsys):
        self._assert_unknown_key(tmp_path, capsys, "learning_rate")

    @pytest.mark.parametrize("key", ["data", "sbm", "out", "config"])
    def test_flags_that_are_no_config_keys(self, tmp_path, capsys, key):
        # the flags that name the data, the output and the file itself
        self._assert_unknown_key(tmp_path, capsys, key)

    @staticmethod
    def _assert_unknown_key(tmp_path, capsys, key):
        (tmp_path / "run.cfg").write_text(f"\n{key} = 0.1\n")
        rc = main(["train", "--sbm", SBM, "--config", str(tmp_path / "run.cfg"),
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert f"run.cfg:2: unknown config key {key!r}" in capsys.readouterr().err

    def test_malformed_line(self, tmp_path, capsys):
        (tmp_path / "run.cfg").write_text("depth 4\n")
        rc = main(["train", "--sbm", SBM, "--config", str(tmp_path / "run.cfg"),
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "run.cfg:1: expected 'key = value'" in capsys.readouterr().err

    def test_zero_and_one_are_numbers_except_for_bool_keys(self, monkeypatch, tmp_path):
        cfg, _, _, repeats, fixed = _config_settings(
            monkeypatch, tmp_path, "seed = 0\ndropout_p = 0\nrepeats = 1\npairnorm_s = 1\n"
                                   "use_lora = 0\nfixed_splits = 1\n")
        assert (type(cfg.seed), type(repeats)) == (int, int)
        assert (type(cfg.dropout_p), type(cfg.pairnorm_s)) == (float, float)
        assert (cfg.seed, cfg.dropout_p, repeats, cfg.pairnorm_s) == (0, 0.0, 1, 1.0)
        assert cfg.use_lora is False and fixed is True
        cfg.validate()

    def test_precedence_flag_over_file_over_default(self, monkeypatch, tmp_path):
        cfg, *_ = _config_settings(monkeypatch, tmp_path, "depth = 6\nlr = 0.5\n",
                                   "--depth", "2")
        assert cfg.depth == 2  # flag wins
        assert cfg.lr == 0.5  # file beats default
        assert cfg.hidden_dim == 64  # default survives

    @pytest.mark.parametrize("line, match", [
        ("fixed_splits = maybe", "run.cfg:1: fixed_splits must be true or false, not 'maybe'"),
        ("depth = none", "argument --depth: invalid int value: 'none'"),
        ("trainer = null", "argument --trainer: invalid choice: 'null'"),
    ])
    def test_bad_value_is_usage_error(self, tmp_path, capsys, line, match):
        # none and null leave unset only the keys whose default is None
        (tmp_path / "run.cfg").write_text(line + "\n")
        rc = main(["train", "--sbm", SBM, "--config", str(tmp_path / "run.cfg"),
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        assert match in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("line, match", [
        ("depth = none", "argument --depth: invalid int value: 'none'"),
        ("variant = gat", "argument --variant: invalid choice: 'gat'"),
        ("repeats = 0", "argument --repeats: must be an integer >= 1, not '0'"),
    ])
    def test_bad_value_names_the_file_and_line(self, tmp_path, capsys, line, match):
        # each value is parsed by its flag's type and choices as its line is read
        (tmp_path / "run.cfg").write_text(f"# a comment\n{line}\n")
        rc = main(["train", "--sbm", SBM, "--config", str(tmp_path / "run.cfg"),
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"run.cfg:2: {match}" in err

    def test_bad_flag_value_is_not_blamed_on_the_file(self, tmp_path, capsys):
        (tmp_path / "run.cfg").write_text("depth = 3\n")
        rc = main(["train", "--sbm", SBM, "--config", str(tmp_path / "run.cfg"),
                   "--depth", "none", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert capsys.readouterr().err == \
            "error: growgcn train: argument --depth: invalid int value: 'none'\n"


def _generator_args(monkeypatch, argv):
    """The arguments ``generate_sbm`` gets from a command, which then stops."""
    seen = []

    def capture(*args):
        seen.append(args)
        raise ValueError("arguments taken")

    monkeypatch.setattr(gdata, "generate_sbm", capture)
    assert main(argv) == 1
    assert len(seen) == 1
    return seen[0]


class TestSbmSpec:
    def test_defaults_fill(self, monkeypatch, tmp_path):
        # a field is parsed by its prepare sbm flag, and a missing one takes its default
        got = _generator_args(monkeypatch, ["train", "--sbm", "classes=3", "--out", str(tmp_path)])
        want = _generator_args(monkeypatch, ["prepare", "sbm", "--classes", "3",
                                             "--out", str(tmp_path)])
        assert repr(got) == repr(want) == repr((3, 100, 0.1, 0.01, 32, 2.0, 0))

    def test_unknown_field(self, tmp_path, capsys):
        rc = main(["train", "--sbm", "classes=3,density=0.5", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert capsys.readouterr().err == "error: unknown --sbm field 'density'\n"

    @pytest.mark.parametrize("field", ["sig", "per-class"])
    def test_field_is_matched_whole(self, tmp_path, capsys, field):
        # neither an abbreviation nor the spelling of a flag names a field
        rc = main(["train", "--sbm", f"{field}=3", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: unknown --sbm field {field!r}\n"

    def test_bad_value(self, tmp_path, capsys):
        rc = main(["train", "--sbm", "p_in=dense", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "argument --p-in: invalid float value: 'dense'" in capsys.readouterr().err

    def test_missing_equals(self, tmp_path, capsys):
        rc = main(["train", "--sbm", "classes", "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "expected k=v" in capsys.readouterr().err

    def test_spec_and_prepare_flags_give_equal_bundles(self, tmp_path):
        assert main(["prepare", "sbm", "--classes", "2", "--per-class", "25", "--p-in", "0.3",
                     "--p-out", "0.05", "--f", "8", "--out", str(tmp_path / "flags")]) == 0
        save_bundle(cli._load_dataset(Namespace(sbm=SBM)), tmp_path / "spec")
        for name in ("meta.json", "edges.tsv", "features.csv", "labels.txt", "splits.json"):
            assert (tmp_path / "spec" / name).read_bytes() == \
                (tmp_path / "flags" / name).read_bytes()


class TestPrepare:
    def test_sbm_bundle_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        rc = main(["prepare", "sbm", "--classes", "2", "--per-class", "25",
                   "--p-in", "0.3", "--p-out", "0.05", "--f", "8", "--out", str(out)])
        assert rc == 0
        assert "wrote bundle" in capsys.readouterr().out
        ds = load_bundle(out)
        assert ds.n == 50 and ds.f == 8 and ds.C == 2

    def test_sbm_rejects_inverted_probs(self, tmp_path, capsys):
        rc = main(["prepare", "sbm", "--p-in", "0.01", "--p-out", "0.1",
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "p_out <= p_in" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, match", [
        (["--classes", "1"], "at least 2 classes"),
        (["--classes", "4", "--f", "3"], "need f >= classes"),
        # checked before the 10,000-node graph is drawn
        (["--classes", "500", "--per-class", "20", "--f", "500"], "no room for val/test"),
    ])
    def test_sbm_bad_shape_is_usage_error(self, tmp_path, capsys, flags, match):
        rc = main(["prepare", "sbm", *flags, "--out", str(tmp_path / "x")])
        assert rc == 1
        assert match in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["prepare", "train"])
    def test_non_finite_signal_is_usage_error(self, tmp_path, capsys, value, command):
        # a flag and a spec field: both end before any bundle or run is written
        argv = (["prepare", "sbm", "--classes", "2", "--per-class", "25", "--f", "8",
                 "--signal", value] if command == "prepare" else
                ["train", "--sbm", f"classes=2,per_class=25,f=8,signal={value}", *FAST])
        rc = main([*argv, "--out", str(tmp_path / "x")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: signal must be a finite number, not {float(value)!r}\n")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv, prog", [
        (["prepare", "sbm", "--seed", "-1"], "growgcn prepare sbm"),
        (["train", "--sbm", "seed=-1"], "growgcn --sbm"),
    ])
    def test_negative_generator_seed_names_its_flag(self, tmp_path, capsys, argv, prog):
        rc = main([*argv, "--out", str(tmp_path / "x")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {prog}: argument --seed: must be an integer >= 0, not '-1'\n")
        assert not (tmp_path / "x").exists()


def write_planetoid_files(tmp_path):
    rng = np.random.default_rng(0)
    content = tmp_path / "toy.content"
    cites = tmp_path / "toy.cites"
    ids = [f"paper{i}" for i in range(44)]
    classes = ["theory" if i < 22 else "systems" for i in range(44)]
    lines = []
    for pid, cls in zip(ids, classes):
        feats = rng.integers(0, 2, size=5)
        feats[0] = 1  # no all-zero rows
        lines.append("\t".join([pid, *map(str, feats), cls]))
    content.write_text("\n".join(lines) + "\n")
    edge_lines = [f"{ids[i]}\t{ids[(i + 3) % 44]}" for i in range(44)]
    edge_lines.append("paper0\tpaper0")  # self-citation: dropped
    edge_lines.append("ghost1\tpaper3")  # unknown id: dropped
    cites.write_text("\n".join(edge_lines) + "\n")
    return content, cites


class TestPlanetoid:
    def test_convert_and_load(self, tmp_path, capsys):
        content, cites = write_planetoid_files(tmp_path)
        out = tmp_path / "bundle"
        rc = main(["prepare", "planetoid", "--content", str(content), "--cites",
                   str(cites), "--name", "toy-citations", "--out", str(out)])
        assert rc == 0
        assert "toy-citations" in capsys.readouterr().out
        ds = load_bundle(out)
        assert ds.n == 44 and ds.f == 5 and ds.C == 2
        assert ds.name == "toy-citations"
        # class names are sorted, so "systems" is label 0
        assert ds.labels[0] == 1 and ds.labels[43] == 0
        assert len(ds.splits.train) == 40
        assert len(ds.splits.val) == 2 and len(ds.splits.test) == 2

    def test_negative_split_seed_is_usage_error(self, tmp_path, capsys):
        content, cites = write_planetoid_files(tmp_path)
        rc = main(["prepare", "planetoid", "--content", str(content), "--cites", str(cites),
                   "--split-seed", "-1", "--out", str(tmp_path / "bundle")])
        assert rc == 1
        assert "argument --split-seed: must be an integer >= 0" in capsys.readouterr().err
        assert not (tmp_path / "bundle").exists()

    def test_repeated_paper_id_is_a_data_error(self, tmp_path, capsys):
        # a second paper4 would leave node 4 isolated and send its citations to node 5
        content, cites = write_planetoid_files(tmp_path)
        lines = content.read_text().splitlines()
        lines[5] = lines[5].replace("paper5", "paper4")
        content.write_text("\n".join(lines) + "\n")
        rc = main(["prepare", "planetoid", "--content", str(content), "--cites", str(cites),
                   "--out", str(tmp_path / "bundle")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"data error: {content}:6: repeated paper id 'paper4', first on line 5\n")
        assert not (tmp_path / "bundle").exists()

    def test_direct_loader_skips_junk_edges(self, tmp_path):
        content, cites = write_planetoid_files(tmp_path)
        ds = load_planetoid(content, cites, name="toy")
        # 44 citations minus one duplicate pair risk: every (i, i+3) pair is
        # unique on 44 nodes, self-cite and ghost dropped
        assert ds.adjacency.nnz == 2 * 44

    def test_ragged_content_rejected(self, tmp_path):
        content = tmp_path / "bad.content"
        content.write_text("a\t1\t0\ttheory\n\nb\t1\tsystems\n")
        cites = tmp_path / "bad.cites"
        cites.write_text("a\tb\n")
        # the blank line is skipped but still counted
        with pytest.raises(DataError, match=r"bad.content:3: row has 1 features"):
            load_planetoid(content, cites)


class TestTrainCommand:
    def test_outputs_and_summary(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["train", "--sbm", SBM, "--out", str(out), *FAST,
                   "--seed", "5", "--repeats", "2"])
        assert rc == 0
        for seed in (5, 6):
            assert (out / f"report_seed{seed}.json").exists()
            assert (out / f"model_seed{seed}.ckpt").exists()
        rows = read_csv(out / "summary.csv")
        assert rows[0] == ["dataset", "trainer", "variant", "depth", "repeats",
                           "mean_test_acc", "std_test_acc", "mean_wall_clock_s"]
        assert rows[1][1:5] == ["standard", "gcn", "2", "2"]
        assert 0.0 <= float(rows[1][5]) <= 1.0

    def test_deterministic_modulo_wall_clock(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["train", "--sbm", SBM, "--out", str(out), *FAST]) == 0
            outs.append(out)
        r1 = json.loads((outs[0] / "report_seed0.json").read_text())
        r2 = json.loads((outs[1] / "report_seed0.json").read_text())
        assert r1["test_acc"] == r2["test_acc"]
        assert [s["train_loss"] for s in r1["stages"]] == \
            [s["train_loss"] for s in r2["stages"]]
        s1, s2 = read_csv(outs[0] / "summary.csv"), read_csv(outs[1] / "summary.csv")
        assert s1[1][:7] == s2[1][:7]  # all but the wall-clock column
        assert (outs[0] / "model_seed0.ckpt").read_bytes() == \
            (outs[1] / "model_seed0.ckpt").read_bytes()

    def test_report_records_blas_build_and_thread_count(self, tmp_path):
        # results are bitwise for one BLAS build, kernel set and thread count, so the
        # report names them; a process started at one thread records 1
        out = tmp_path / "run"
        env = dict(os.environ, PYTHONPATH=str(Path(growgcn.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS="1")
        res = subprocess.run([sys.executable, "-m", "growgcn.cli", "train", "--sbm", SBM,
                              "--out", str(out), *FAST], capture_output=True, text=True,
                             env=env)
        assert res.returncode == 0, res.stderr
        report = json.loads((out / "report_seed0.json").read_text())
        assert set(report) == {f.name for f in fields(TrainReport)} | {"blas", "blas_threads"}
        if growgcn.autodiff._OPENBLAS is None:
            assert report["blas"] is None and report["blas_threads"] is None
        else:
            assert report["blas_threads"] == 1 and report["blas"].startswith("OpenBLAS")

    def test_lgt_config_file_and_flag_precedence(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("trainer = lgt\ndepth = 3\nmax_epochs = 3\npatience = 3\n"
                           "hidden_dim = 8\nlora_rank = 4\nrow_normalize_features = false\n")
        out1 = tmp_path / "from-file"
        assert main(["train", "--sbm", SBM, "--config", str(cfgfile),
                     "--out", str(out1)]) == 0
        r1 = json.loads((out1 / "report_seed0.json").read_text())
        assert len(r1["stages"]) == 3  # depth from config, trainer lgt from config
        out2 = tmp_path / "flag-wins"
        assert main(["train", "--sbm", SBM, "--config", str(cfgfile), "--depth", "2",
                     "--out", str(out2)]) == 0
        r2 = json.loads((out2 / "report_seed0.json").read_text())
        assert len(r2["stages"]) == 2
        # row_normalize_features=false from the config survives into the checkpoint
        assert load_checkpoint(out2 / "model_seed0.ckpt").row_normalize is False

    def test_missing_data_source(self, tmp_path, capsys):
        rc = main(["train", "--out", str(tmp_path / "x"), *FAST])
        assert rc == 1
        assert "--data or --sbm" in capsys.readouterr().err

    def test_nonexistent_bundle_is_data_error(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "nope"), "--out",
                   str(tmp_path / "x"), *FAST])
        assert rc == 2
        assert "data error" in capsys.readouterr().err

    def test_unknown_trainer_is_usage_error(self, tmp_path, capsys):
        rc = main(["train", "--sbm", SBM, "--trainer", "sgd",
                   "--out", str(tmp_path / "x")])
        assert rc == 1

    def test_bad_sbm_spec(self, tmp_path):
        rc = main(["train", "--sbm", "blobs=3", "--out", str(tmp_path / "x"), *FAST])
        assert rc == 1

    def test_lora_rank_above_feature_width_is_usage_error(self, tmp_path, capsys):
        # f=8 bounds the rank of layer 0's adapter
        rc = main(["train", "--sbm", SBM, "--trainer", "lgt", "--rank", "9",
                   "--out", str(tmp_path / "x"), *FAST])
        assert rc == 1
        err = capsys.readouterr().err
        assert "lora rank 9 exceeds min(feature dim, hidden dim) = 8" in err
        assert "lower --rank or raise --hidden-dim" in err
        assert not (tmp_path / "x").exists()


def _prefix(raw):
    """An edit that puts a byte which is not UTF-8 before a file's contents."""
    return lambda old: raw + old


def _empty_split(name):
    """An edit of splits.json that leaves the ``name`` split empty."""
    def edit(old):
        splits = json.loads(old)
        splits[name] = []
        return json.dumps(splits).encode()
    return edit


SPLITS = ("train", "val", "test")

# id: (exit code, extra train flags, {file under tmp_path: bytes or edit of old bytes})
EXIT_CASES = {
    "depth-0": (1, ["--depth", "0"], {}),
    "rank-negative": (1, ["--rank", "-1"], {}),
    "hidden-dim-0": (1, ["--hidden-dim", "0"], {}),
    "config-rank-negative": (1, ["--config", "run.cfg"], {"run.cfg": b"lora_rank = -1\n"}),
    "config-hidden-dim-inf": (1, ["--config", "run.cfg", "--rank", "2"],
                              {"run.cfg": b"hidden_dim = 1e999\n"}),
    "lr-nan": (1, ["--lr", "nan", "--rank", "2"], {}),
    "pairnorm-s-0": (1, ["--variant", "gcn+pairnorm", "--pairnorm-s", "0", "--rank", "2"], {}),
    "seed-negative": (1, ["--seed", "-1", "--rank", "2"], {}),
    "config-repeats-text": (1, ["--config", "run.cfg"], {"run.cfg": b"repeats = many\n"}),
    "config-zeros-and-ones": (0, ["--config", "run.cfg", "--rank", "2"],
                              {"run.cfg": b"seed = 0\ndropout_p = 0\nrepeats = 1\n"
                                          b"pairnorm_s = 1\nweight_decay = 0\ndepth = 1\n"
                                          b"lora_rank = 1\npatience = 1\nmax_epochs = 1\n"}),
    "config-depth-true": (1, ["--config", "run.cfg"], {"run.cfg": b"depth = true\n"}),
    "config-not-utf8": (2, ["--config", "run.cfg"], {"run.cfg": b"depth = \xff2\n"}),
    "variant-sgc": (1, ["--variant", "sgc", "--rank", "2"], {}),
    "config-variant-sgc": (1, ["--config", "run.cfg", "--rank", "2"],
                           {"run.cfg": b"variant = sgc\n"}),
    "features-csv-empty": (2, [], {"bundle/features.csv": b""}),
    **{f"{name}-not-utf8": (2, [], {f"bundle/{name}": _prefix(b"\xff")})
       for name in ("meta.json", "edges.tsv", "features.csv", "labels.txt", "splits.json")},
    "meta-json-list": (2, [], {"bundle/meta.json": b"[120, 8, 3]"}),
    "splits-json-list": (2, [], {"bundle/splits.json": b"[[0], [1], [2]]"}),
    "split-index-infinite": (2, [], {"bundle/splits.json":
                                     b'{"train": [1e999], "val": [1], "test": [2]}'}),
    "split-index-fraction": (2, [], {"bundle/splits.json":
                                     b'{"train": [0.5], "val": [1], "test": [2]}'}),
    **{f"{name}-split-empty": (2, ["--fixed-splits"],
                               {"bundle/splits.json": _empty_split(name)})
       for name in SPLITS},
}


def _cli_process(*args):
    """Run the CLI in a fresh process that shows every warning; returns the result."""
    env = dict(os.environ, PYTHONPATH=str(Path(growgcn.__file__).parents[1]),
               PYTHONWARNINGS="default")
    return subprocess.run([sys.executable, "-m", "growgcn.cli", *args],
                          capture_output=True, text=True, env=env)


class TestExitCodes:
    """Bad hyperparameters exit 1 and bad input files exit 2, never a traceback."""

    @pytest.mark.parametrize("case", list(EXIT_CASES))
    def test_train_exit_code(self, tmp_path, capsys, case):
        code, flags, files = EXIT_CASES[case]
        save_bundle(generate_sbm(3, 40, 0.1, 0.01, f=8, signal=2.0, seed=0),
                    tmp_path / "bundle")
        for name, content in files.items():
            path = tmp_path / name
            path.write_bytes(content(path.read_bytes()) if callable(content) else content)
        flags = [str(tmp_path / f) if f == "run.cfg" else f for f in flags]
        rc = main(["train", "--data", str(tmp_path / "bundle"), "--trainer", "lgt",
                   "--max-epochs", "4", "--patience", "4", "--out", str(tmp_path / "x"),
                   *flags])
        assert rc == code
        if code:
            err = capsys.readouterr().err
            assert err.startswith(("error:", "data error:")[code - 1])
            if case.endswith("-split-empty"):
                assert f"splits.json: the {case.split('-')[0]} split is empty" in err

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("route", ["flags", "config"])
    def test_staged_sgc_is_usage_error_before_data_loads(self, tmp_path, capsys, command,
                                                         route):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trainer = lgt\nvariant = sgc\n")
        flags = (["--trainer", "lgt", "--variant", "sgc"] if route == "flags"
                 else ["--config", str(cfg)])
        axis = ["--axis", "depth", "--values", "1"] if command == "sweep" else []
        rc = main([command, *axis, "--data", str(tmp_path / "missing"), *flags,
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "staged training (trainer lgt)" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_staged_sgc_in_a_sweep_cell_is_usage_error(self, capsys, tmp_path):
        # the ablation and rank axes run lgt cells whatever the trainer
        for axis in (["--axis", "ablation"], ["--axis", "rank", "--values", "2"]):
            rc = main(["sweep", *axis, "--sbm", SBM, "--trainer", "standard",
                       "--variant", "sgc", "--out", str(tmp_path / "x")])
            assert rc == 1
            assert "not 'sgc'" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["trainer = joint", "variant = gat"])
    def test_unknown_name_in_a_sweep_config_is_usage_error(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        rc = main(["sweep", "--axis", "depth", "--values", "1", "--sbm", SBM,
                   "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 1
        # the message of the flag the key stands for
        key, _, value = line.split()
        assert f"argument --{key}: invalid choice: {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["train"], ["sweep", "--axis", "depth", "--values", "1,2"],
                                         ["prepare", "sbm"]])
    def test_unwritable_out_prints_one_error_line(self, tmp_path, capsys, monkeypatch, command):
        # a regular file stands where the output directory goes; no run starts
        blocker = tmp_path / "file"
        blocker.write_text("")
        trained = []
        monkeypatch.setattr(cli, "run_repeats", lambda *args: trained.append(args))
        flags = [] if command[0] == "prepare" else ["--sbm", SBM, "--rank", "2", *FAST]
        out = blocker / "x" if command[0] == "prepare" else blocker
        assert main([*command, *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(blocker) in err
        assert trained == []

    def test_empty_features_file_prints_one_error_line(self, tmp_path):
        bundle = save_bundle(generate_sbm(2, 25, 0.3, 0.05, f=8, signal=2.0, seed=0),
                             tmp_path / "bundle")
        (bundle / "features.csv").write_bytes(b"")
        proc = _cli_process("train", "--data", str(bundle), "--out", str(tmp_path / "x"))
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("data error:"), proc.stderr
        # the message names the missing rows, not the (0, 1) shape numpy gives
        assert lines[0].endswith("features.csv: no data rows, expected n=50 rows of f=8 values")

    def test_non_finite_final_forward_writes_no_report(self, tmp_path):
        # one Adam step at lr 1e30 leaves the restored weights with non-finite logits:
        # the final forward aborts as `growgcn eval` of those weights would
        bundle = save_bundle(generate_sbm(2, 25, 0.3, 0.05, f=8, signal=2.0, seed=0),
                             tmp_path / "bundle")
        proc = _cli_process("train", "--data", str(bundle), "--fixed-splits", "--lr", "1e30",
                            "--max-epochs", "1", "--patience", "1", "--out", str(tmp_path / "x"))
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [
            "numerical abort: non-finite logits in the evaluation forward"]
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", [["train"], ["sweep", "--axis", "depth", "--values", "2"]])
    def test_aborted_run_removes_the_out_it_made(self, tmp_path, command):
        # a run that aborts before writing takes away the --out it made, not one made before
        flags = [*command, "--sbm", SBM, "--lr", "1e308", "--rank", "2", "--repeats", "1", *FAST]
        assert main([*flags, "--out", str(tmp_path / "new")]) == 3
        assert not (tmp_path / "new").exists()
        (tmp_path / "old").mkdir()
        assert main([*flags, "--out", str(tmp_path / "old")]) == 3
        assert list((tmp_path / "old").iterdir()) == []

    @pytest.mark.parametrize("line", ["lr = 1e308", "weight_decay = 1e308"])
    def test_huge_rate_prints_one_error_line(self, tmp_path, line):
        # the weights overflow float32 in the first Adam step; numpy's overflow
        # and invalid-value warnings must not reach stderr before the abort
        (tmp_path / "run.cfg").write_text(line + "\n")
        proc = _cli_process("train", "--sbm", SBM, "--config", str(tmp_path / "run.cfg"),
                            "--out", str(tmp_path / "x"), *FAST)
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical abort:"), proc.stderr

    @pytest.mark.parametrize("command", ["eval", "export-embeddings"])
    @pytest.mark.parametrize("scale, code", [(1.0, 0), (1e37, 3)])
    def test_checkpoint_commands_print_no_warning(self, tmp_path, command, scale, code):
        # with every warning shown, stderr stays empty (the checkpoint file is
        # closed); weights that overflow float32 in the forward are a numerical
        # abort on one line, not numpy's warnings and an accuracy of non-finite logits
        bundle = save_bundle(generate_sbm(2, 25, 0.3, 0.05, f=8, signal=2.0, seed=0),
                             tmp_path / "bundle")
        assert main(["train", "--data", str(bundle), "--fixed-splits",
                     "--out", str(tmp_path / "run"), *FAST]) == 0
        stack = load_checkpoint(tmp_path / "run" / "model_seed0.ckpt")
        for p in stack.parameters():
            p.data *= scale
        save_checkpoint(stack, tmp_path / "m.ckpt")
        out = (["--layer", "1", "--out", str(tmp_path / "e.csv")]
               if command == "export-embeddings" else [])
        proc = _cli_process(command, "--checkpoint", str(tmp_path / "m.ckpt"),
                            "--data", str(bundle), *out)
        assert proc.returncode == code, proc.stderr
        if code:
            lines = proc.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("numerical abort:"), proc.stderr
        else:
            assert proc.stderr == ""

    @pytest.mark.parametrize("split", SPLITS)
    def test_eval_on_empty_split(self, tmp_path, capsys, split):
        bundle = tmp_path / "bundle"
        save_bundle(generate_sbm(2, 25, 0.3, 0.05, f=8, signal=2.0, seed=0), bundle)
        assert main(["train", "--data", str(bundle), "--fixed-splits",
                     "--out", str(tmp_path / "run"), *FAST]) == 0
        path = bundle / "splits.json"
        path.write_bytes(_empty_split(split)(path.read_bytes()))
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(tmp_path / "run" / "model_seed0.ckpt"),
                   "--data", str(bundle), "--split", split])
        assert rc == 2
        assert f"{path}: the {split} split is empty" in capsys.readouterr().err

    def test_planetoid_not_utf8(self, tmp_path):
        content, cites = write_planetoid_files(tmp_path)
        content.write_bytes(b"\xff" + content.read_bytes())
        rc = main(["prepare", "planetoid", "--content", str(content), "--cites", str(cites),
                   "--out", str(tmp_path / "bundle")])
        assert rc == 2

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
    def test_planetoid_non_finite_feature(self, tmp_path, capsys, field):
        content, cites = write_planetoid_files(tmp_path)
        lines = content.read_text().splitlines()
        parts = lines[3].split("\t")
        parts[1] = field
        lines[3] = "\t".join(parts)
        content.write_text("\n".join(lines) + "\n")
        rc = main(["prepare", "planetoid", "--content", str(content), "--cites", str(cites),
                   "--out", str(tmp_path / "bundle")])
        assert rc == 2
        assert f"{content}:4: non-finite feature value" in capsys.readouterr().err
        assert not (tmp_path / "bundle").exists()

    @pytest.mark.parametrize("command", ["train", "eval", "prepare sbm"])
    def test_out_of_memory_is_a_data_error_on_one_line(self, tmp_path, capsys, monkeypatch,
                                                       command):
        # an allocation that fails inside each path: the collapse report that ends
        # train, the forward of eval, the adjacency of a generated graph
        bundle = save_bundle(generate_sbm(2, 25, 0.3, 0.05, f=8, signal=2.0, seed=0),
                             tmp_path / "bundle")
        numpy_message = "Unable to allocate 149. GiB for an array with shape (200000, 200000)"

        def fail(*args, **kwargs):
            raise MemoryError() if command == "train" else MemoryError(numpy_message)

        out = tmp_path / "out"
        if command == "train":
            monkeypatch.setattr(gmetrics, "dirichlet_energy", fail)
            argv = ["train", "--data", str(bundle), "--out", str(out), *FAST]
        elif command == "eval":
            assert main(["train", "--data", str(bundle), "--fixed-splits",
                         "--out", str(tmp_path / "run"), *FAST]) == 0
            monkeypatch.setattr(ly, "eval_forward", fail)
            argv = ["eval", "--checkpoint", str(tmp_path / "run" / "model_seed0.ckpt"),
                    "--data", str(bundle)]
        else:
            monkeypatch.setattr(gdata, "build_adjacency", fail)
            argv = ["prepare", "sbm", "--classes", "2", "--per-class", "25", "--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("data error: out of memory: "), err
        assert err.endswith(("an allocation failed\n" if command == "train"
                             else numpy_message + "\n"))
        if command == "prepare sbm":
            assert not out.exists()


BUNDLE_FILES = ("meta.json", "splits.json", "labels.txt", "edges.tsv", "features.csv")
_TEXTISH = st.sampled_from(list(b'0123456789-+.eE"[],:{}\t\n ntfrua#'))
_EDIT = st.tuples(st.sampled_from(["set", "insert", "delete"]), st.integers(0, 10**6),
                  st.one_of(st.integers(0, 255), _TEXTISH))


def _mutate(blob, edits, cut):
    blob = bytearray(blob)
    for op, pos, byte in edits:
        pos %= len(blob) + 1
        if op == "insert":
            blob[pos:pos] = bytes([byte])
        elif blob and op == "set":
            blob[pos % len(blob)] = byte
        elif blob:
            del blob[pos % len(blob)]
    return bytes(blob if cut is None else blob[:cut % (len(blob) + 1)])


@settings(max_examples=200, deadline=None)
@given(
    mutated=st.lists(st.tuples(st.sampled_from(BUNDLE_FILES), st.lists(_EDIT, max_size=4),
                               st.one_of(st.none(), st.integers(0, 10**6))),
                     min_size=1, max_size=2),
    trainer=st.sampled_from(["standard", "lgt"]),
)
def test_mutated_bundle_exits_with_a_contract_code(mutated, trainer):
    """Byte-mutated bundle files end in exit 0, 1, 2 or 3, never in an exception."""
    with tempfile.TemporaryDirectory() as tmp:
        bundle = save_bundle(generate_sbm(3, 22, 0.2, 0.02, f=4, signal=2.0, seed=0),
                             Path(tmp) / "bundle")
        for name, edits, cut in mutated:
            path = bundle / name
            path.write_bytes(_mutate(path.read_bytes(), edits, cut))
        rc = main(["train", "--data", str(bundle), "--fixed-splits", "--trainer", trainer,
                   "--max-epochs", "2", "--patience", "2", "--depth", "2",
                   "--hidden-dim", "8", "--rank", "2", "--out", str(Path(tmp) / "run")])
    assert rc in (0, 1, 2, 3)


class TestEvalAndExport:
    @pytest.fixture()
    def trained(self, tmp_path):
        bundle = tmp_path / "bundle"
        assert main(["prepare", "sbm", "--classes", "2", "--per-class", "25",
                     "--p-in", "0.3", "--p-out", "0.05", "--f", "8",
                     "--out", str(bundle)]) == 0
        run = tmp_path / "run"
        assert main(["train", "--data", str(bundle), "--fixed-splits",
                     "--out", str(run), *FAST]) == 0
        return bundle, run

    def test_eval_matches_report(self, trained, capsys):
        bundle, run = trained
        rc = main(["eval", "--checkpoint", str(run / "model_seed0.ckpt"),
                   "--data", str(bundle), "--split", "test"])
        assert rc == 0
        printed = float(capsys.readouterr().out.strip().split()[-1])
        report = json.loads((run / "report_seed0.json").read_text())
        assert printed == pytest.approx(report["test_acc"], abs=5e-5)

    def test_export_embeddings(self, trained, tmp_path):
        bundle, run = trained
        out = tmp_path / "emb.csv"
        rc = main(["export-embeddings", "--checkpoint", str(run / "model_seed0.ckpt"),
                   "--data", str(bundle), "--layer", "1", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert rows[0][:2] == ["node_id", "label"] and len(rows) == 51

    def test_export_to_a_missing_directory_prints_one_error_line(self, trained, tmp_path,
                                                                 capsys):
        bundle, run = trained
        out = tmp_path / "missing" / "e.csv"
        rc = main(["export-embeddings", "--checkpoint", str(run / "model_seed0.ckpt"),
                   "--data", str(bundle), "--layer", "1", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(out) in err

    def test_export_bad_layer(self, trained, tmp_path, capsys):
        bundle, run = trained
        rc = main(["export-embeddings", "--checkpoint", str(run / "model_seed0.ckpt"),
                   "--data", str(bundle), "--layer", "99",
                   "--out", str(tmp_path / "e.csv")])
        assert rc == 1
        assert "layer index" in capsys.readouterr().err

    def test_eval_missing_checkpoint(self, trained, tmp_path):
        bundle, _ = trained
        rc = main(["eval", "--checkpoint", str(tmp_path / "ghost.ckpt"),
                   "--data", str(bundle)])
        assert rc == 2

    def test_eval_ten_byte_checkpoint(self, trained, tmp_path, capsys):
        bundle, run = trained
        short = tmp_path / "short.ckpt"
        short.write_bytes((run / "model_seed0.ckpt").read_bytes()[:10])
        rc = main(["eval", "--checkpoint", str(short), "--data", str(bundle)])
        assert rc == 2
        assert "truncated" in capsys.readouterr().err


    @pytest.mark.parametrize("variant", ["gcn", "sgc"])
    @pytest.mark.parametrize("command", ["eval", "export-embeddings"])
    def test_feature_width_mismatch_is_data_error(self, trained, tmp_path, capsys,
                                                  command, variant):
        # an SGC checkpoint has no conv layers; its head reads the features
        bundle, _ = trained
        run = tmp_path / "run_width"
        assert main(["train", "--data", str(bundle), "--fixed-splits", "--trainer",
                     "standard", "--variant", variant, "--out", str(run), *FAST]) == 0
        narrow = tmp_path / "narrow"
        assert main(["prepare", "sbm", "--classes", "2", "--per-class", "25",
                     "--p-in", "0.3", "--p-out", "0.05", "--f", "6",
                     "--out", str(narrow)]) == 0
        extra = ["--layer", "1", "--out", str(tmp_path / "e.csv")] \
            if command == "export-embeddings" else []
        capsys.readouterr()
        rc = main([command, "--checkpoint", str(run / "model_seed0.ckpt"),
                   "--data", str(narrow), *extra])
        assert rc == 2
        assert "bundle has 6 features" in capsys.readouterr().err
        assert not (tmp_path / "e.csv").exists()


CONFIG_TEXT = (b"# a staged run\ntrainer = lgt\nvariant = gcn\nlora_rank = 2\n"
               b"dropout_p = 0.5\nlr = 0.01\nweight_decay = 5e-4\n"
               b"seed = 3\nuse_lora = true\nnew_layer_init = identity\n"
               b"fixed_splits = no\n")


@settings(max_examples=150, deadline=None)
@given(edits=st.lists(_EDIT, max_size=6), cut=st.one_of(st.none(), st.integers(0, 10**6)))
def test_mutated_config_file_exits_with_a_contract_code(edits, cut):
    """Byte-mutated config files end in exit 0, 1, 2 or 3, never in an exception.

    The flags fix the model's size, and flags take precedence over the file.
    """
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_bytes(_mutate(CONFIG_TEXT, edits, cut))
        rc = main(["train", "--sbm", SBM, "--config", str(cfg), "--depth", "2",
                   "--hidden-dim", "8", "--max-epochs", "2", "--patience", "2",
                   "--repeats", "1", "--out", str(Path(tmp) / "run")])
    assert rc in (0, 1, 2, 3)


@settings(max_examples=100, deadline=None)
@given(mutated=st.lists(st.tuples(st.sampled_from(["content", "cites"]),
                                  st.lists(_EDIT, max_size=4),
                                  st.one_of(st.none(), st.integers(0, 10**6))),
                        min_size=1, max_size=2))
def test_mutated_planetoid_files_exit_with_a_contract_code(mutated):
    """Byte-mutated .content/.cites files end in exit 0, 1, 2 or 3, never in an exception."""
    with tempfile.TemporaryDirectory() as tmp:
        files = dict(zip(["content", "cites"], write_planetoid_files(Path(tmp))))
        for name, edits, cut in mutated:
            files[name].write_bytes(_mutate(files[name].read_bytes(), edits, cut))
        rc = main(["prepare", "planetoid", "--content", str(files["content"]),
                   "--cites", str(files["cites"]), "--out", str(Path(tmp) / "bundle")])
    assert rc in (0, 1, 2, 3)


class TestSweep:
    def test_depth_axis(self, tmp_path):
        out = tmp_path / "sweep"
        rc = main(["sweep", "--axis", "depth", "--values", "1,2", "--sbm", SBM,
                   "--repeats", "1", "--max-epochs", "3", "--patience", "3",
                   "--hidden-dim", "8", "--rank", "4", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "sweep.csv")
        assert rows[0] == ["axis", "cell", "value", "mean_test_acc", "std_test_acc",
                           "mean_epochs", "mean_wall_clock_s"]
        assert [r[1] for r in rows[1:]] == ["depth1", "depth2"]
        assert all(r[0] == "depth" for r in rows[1:])
        assert (out / "table.txt").exists()

    def test_rank_axis_reports_best(self, tmp_path):
        out = tmp_path / "sweep"
        rc = main(["sweep", "--axis", "rank", "--values", "1,2", "--sbm", SBM,
                   "--repeats", "1", "--max-epochs", "3", "--patience", "3",
                   "--depth", "2", "--hidden-dim", "8", "--out", str(out)])
        assert rc == 0
        table = (out / "table.txt").read_text()
        assert "best mean accuracy at rank" in table
        rows = read_csv(out / "sweep.csv")
        assert [r[1] for r in rows[1:]] == ["rank1", "rank2"]

    def test_ablation_axis_cells(self, tmp_path):
        out = tmp_path / "sweep"
        rc = main(["sweep", "--axis", "ablation", "--sbm", SBM, "--repeats", "1",
                   "--max-epochs", "3", "--patience", "3", "--depth", "2",
                   "--hidden-dim", "8", "--rank", "4", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out / "sweep.csv")
        assert [r[1] for r in rows[1:]] == [
            "gcn", "gcn+lt", "gcn+lt+lora", "gcn+lt+lora+identity"]

    @pytest.mark.parametrize("fixed", [[], ["--fixed-splits"]])
    def test_bundle_cells_match_train(self, tmp_path, fixed):
        # a sweep cell on a bundle runs what `train` runs on it, with or without
        # the bundle's own splits
        bundle = save_bundle(generate_sbm(2, 25, 0.3, 0.05, f=8, signal=2.0, seed=0),
                             tmp_path / "bundle")
        flags = ["--data", str(bundle), "--repeats", "2", "--trainer", "lgt", "--rank", "4",
                 *fixed, *FAST]
        assert main(["sweep", "--axis", "depth", "--values", "1,2", *flags,
                     "--out", str(tmp_path / "sweep")]) == 0
        assert main(["train", *flags, "--out", str(tmp_path / "train")]) == 0
        cells = read_csv(tmp_path / "sweep" / "sweep.csv")
        assert [r[1] for r in cells[1:]] == ["depth1", "depth2"]
        summary = read_csv(tmp_path / "train" / "summary.csv")[1]
        assert cells[2][3:5] == summary[5:7]  # depth 2: mean and std test accuracy

    def test_empty_split_in_a_bundle_cell_is_data_error(self, tmp_path, capsys):
        bundle = save_bundle(generate_sbm(2, 25, 0.3, 0.05, f=8, signal=2.0, seed=0),
                             tmp_path / "bundle")
        path = bundle / "splits.json"
        path.write_bytes(_empty_split("val")(path.read_bytes()))
        rc = main(["sweep", "--axis", "depth", "--values", "1", "--data", str(bundle),
                   "--fixed-splits", "--repeats", "1", *FAST, "--out", str(tmp_path / "x")])
        assert rc == 2
        assert f"{path}: the val split is empty" in capsys.readouterr().err

    def test_two_workers_give_the_cells_of_one(self, tmp_path):
        bundle = save_bundle(generate_sbm(2, 25, 0.3, 0.05, f=8, signal=2.0, seed=0),
                             tmp_path / "bundle")
        rows = {}
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            assert main(["sweep", "--axis", "ablation", "--data", str(bundle), "--repeats",
                         "1", "--rank", "4", *FAST, "--workers", workers,
                         "--out", str(out)]) == 0
            # every column but the wall clock
            rows[workers] = [r[:-1] for r in read_csv(out / "sweep.csv")]
        assert len(rows["1"]) == 5 and rows["1"] == rows["2"]

    @pytest.mark.parametrize("source", ["sbm", "bundle", "two-workers"])
    def test_lora_rank_above_feature_width_is_usage_error(self, tmp_path, capsys, source):
        # every cell's rank is checked against the data's feature width as `train`
        # checks it, in the parent process before any cell trains
        if source == "sbm":
            flags = ["--sbm", SBM]
        else:
            bundle = save_bundle(generate_sbm(2, 25, 0.3, 0.05, f=8, signal=2.0, seed=0),
                                 tmp_path / "bundle")
            flags = ["--data", str(bundle)] + (["--workers", "2"] if source == "two-workers"
                                               else [])
        rc = main(["sweep", "--axis", "depth", "--values", "2,3", *flags, "--repeats", "1",
                   *FAST, "--rank", "10", "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "lora rank 10 exceeds min(feature dim, hidden dim) = 8" in err
        assert "lower --rank or raise --hidden-dim" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_bad_sbm_spec_prints_one_error_line(self, tmp_path, capsys, workers):
        rc = main(["sweep", "--axis", "depth", "--values", "2", "--sbm",
                   "classes=1,per_class=30,f=8", "--workers", workers,
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: need at least 2 classes"]

    def test_bad_rank_in_a_later_cell_stops_the_sweep_before_any_cell_trains(
            self, tmp_path, capsys, monkeypatch):
        def no_training(*args):
            raise AssertionError("a cell trained")

        monkeypatch.setattr(cli, "run_repeats", no_training)
        rc = main(["sweep", "--axis", "rank", "--values", "2,4,10", "--sbm", SBM,
                   "--repeats", "1", *FAST, "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "lora rank 10 exceeds" in capsys.readouterr().err

    def test_bundle_is_read_once_for_every_cell(self, tmp_path, monkeypatch):
        bundle = save_bundle(generate_sbm(2, 25, 0.3, 0.05, f=8, signal=2.0, seed=0),
                             tmp_path / "bundle")
        reads = []

        def counting_load(path):
            reads.append(path)
            return load_bundle(path)

        monkeypatch.setattr(gdata, "load_bundle", counting_load)
        assert main(["sweep", "--axis", "depth", "--values", "1,2,3", "--data", str(bundle),
                     "--repeats", "1", "--rank", "4", *FAST, "--out", str(tmp_path / "x")]) == 0
        assert reads == [str(bundle)]
        assert len(read_csv(tmp_path / "x" / "sweep.csv")) == 4

    @pytest.mark.parametrize("workers, pool_size", [("64", 4), ("3", 3), ("1", None)])
    def test_pool_has_at_most_one_worker_per_cell(self, tmp_path, monkeypatch, workers,
                                                   pool_size):
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        assert main(["sweep", "--axis", "ablation", "--sbm", SBM, "--repeats", "1",
                     "--rank", "4", *FAST, "--workers", workers,
                     "--out", str(tmp_path / "x")]) == 0
        assert sizes == ([] if pool_size is None else [pool_size])
        assert len(read_csv(tmp_path / "x" / "sweep.csv")) == 5

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_is_usage_error(self, tmp_path, capsys, workers):
        rc = main(["sweep", "--axis", "ablation", "--sbm", SBM, "--workers", workers,
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "argument --workers: must be an integer >= 1" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_reproduce_script_rejects_workers_below_one_before_any_step(self, tmp_path):
        script = Path(__file__).resolve().parents[1] / "scripts" / "reproduce.py"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        res = subprocess.run([sys.executable, str(script), "--fast", "--workers", "0",
                              "--out", str(tmp_path / "results")],
                             capture_output=True, text=True, env=env, timeout=60)
        assert res.returncode == 1
        assert res.stdout == ""  # the gradient check would print its banner first
        assert res.stderr == ("error: reproduce.py: argument --workers: "
                              "must be an integer >= 1, not '0'\n")

    def test_values_required_for_depth(self, tmp_path, capsys):
        rc = main(["sweep", "--axis", "depth", "--sbm", SBM,
                   "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "--values required" in capsys.readouterr().err

    def test_values_rejected_for_ablation(self, tmp_path):
        rc = main(["sweep", "--axis", "ablation", "--values", "1,2", "--sbm", SBM,
                   "--out", str(tmp_path / "x")])
        assert rc == 1


class TestGradcheckCommand:
    def test_passes(self, capsys):
        assert main(["gradcheck", "--seeds", "3"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_corrupt_backward_fails_with_exit_3(self, capsys):
        rc = main(["gradcheck", "--seeds", "3", "--corrupt-backward"])
        assert rc == 3
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "numerical abort" in captured.err

    def test_bad_seed_count(self):
        assert main(["gradcheck", "--seeds", "0"]) == 1

    @pytest.mark.parametrize("flags, match", [
        (["--eps", "1"], "--eps must be in"),
        (["--eps", "nan"], "--eps must be in"),
        (["--eps", "1e-9"], "--eps must be in"),
        (["--threshold", "nan"], "--threshold must be"),
        (["--threshold", "inf"], "--threshold must be"),
        (["--threshold", "0"], "--threshold must be"),
    ])
    def test_bad_eps_or_threshold_is_usage_error(self, capsys, flags, match):
        assert main(["gradcheck", "--seeds", "1", *flags]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and match in err
