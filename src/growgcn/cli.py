"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical abort.

Subcommands:
    prepare sbm | planetoid   write a dataset bundle
    train                     train one model (repeats supported), save
                              reports, checkpoints, and a summary CSV
    sweep                     grid over depth, rank, or ablation cells
    gradcheck                 randomized gradient verification suite
    eval                      accuracy of a checkpoint on a bundle split
    export-embeddings         dump one layer's features to CSV
"""

import argparse
import contextlib
import csv
import json
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import data as gdata
from . import gradcheck as gc
from . import metrics as gmetrics
from .errors import DataError, NumericalAbort
from .autodiff import GRAD_CHECK_EPS, blas_info
from .train import TRAINERS, VARIANTS, TrainConfig, check_run, evaluate, train


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the exit-code contract wants 1."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def count(text, least=1):
    """The argparse type of a count: what ``int`` accepts, if it is >= ``least``."""
    try:
        value = int(text)
    except ValueError:
        value = least - 1
    if value < least:
        raise argparse.ArgumentTypeError(f"must be an integer >= {least}, not {text!r}")
    return value


seed = partial(count, least=0)  # the argparse type of a random generator's seed


def counts(text):
    """The argparse type of comma-separated counts."""
    return [count(v) for v in text.split(",")]


# ---------------------------------------------------------------- config file

_BOOLS = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}
# the keys a config file may set to none or null, which leaves them unset
_UNSET_KEYS = {f.name for f in fields(TrainConfig) if f.default is None}


def read_config_file(path, flags):
    """The command-line tokens of a file's ``key = value`` lines ('#' starts a comment).

    ``flags`` maps each key to its flag's action. A bool key gives its switch when
    the value is the one the switch sets; a later line overrides an earlier one.
    """
    tokens = {}
    for lineno, line in enumerate(gdata._read_text(path).splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError("expected 'key = value'", file=path, line=lineno)
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in flags:
            raise DataError(f"unknown config key {key!r}", file=path, line=lineno)
        flag = flags[key].option_strings[0]
        if flags[key].nargs == 0:
            if raw.lower() not in _BOOLS:
                raise UsageError(f"{path}:{lineno}: {key} must be true or false, not {raw!r}")
            tokens[key] = flag if _BOOLS[raw.lower()] == flags[key].const else None
        elif key in _UNSET_KEYS and raw.lower() in ("none", "null"):
            tokens[key] = None
        else:
            tokens[key] = f"{flag}={raw}"
            # the flag's own type and choices, in a parser whose errors name the line
            check = Parser(prog=f"{path}:{lineno}", add_help=False)
            check.add_argument(flag, type=flags[key].type, choices=flags[key].choices)
            check.parse_args([tokens[key]])
    return [t for t in tokens.values() if t is not None]


def _settings(args, default_trainer, default_repeats):
    """The settings of train and sweep: (cfg, trainer, variant, repeats, fixed_splits)."""
    repeats = default_repeats if args.repeats is None else args.repeats
    cfg = TrainConfig(**{f.name: getattr(args, f.name) for f in fields(TrainConfig)
                         if getattr(args, f.name) is not None})
    return (cfg, args.trainer or default_trainer, args.variant or "gcn", repeats,
            bool(args.fixed_splits))


# ---------------------------------------------------------------- data access

def _sbm_flags():
    """The parser of the block-model generator's flags and {field: action} of each."""
    parser = Parser(prog="growgcn --sbm", add_help=False)
    actions = [
        parser.add_argument("--classes", type=int, default=4),
        parser.add_argument("--per-class", dest="per_class", type=int, default=100),
        parser.add_argument("--p-in", dest="p_in", type=float, default=0.1),
        parser.add_argument("--p-out", dest="p_out", type=float, default=0.01),
        parser.add_argument("--f", type=int, default=32),
        parser.add_argument("--signal", type=float, default=2.0),
        parser.add_argument("--seed", type=seed, default=0),
    ]
    return parser, {a.dest: a for a in actions}


def _parse_sbm_spec(text):
    """The namespace of a ``k=v,...`` spec, each field parsed as its ``prepare sbm`` flag."""
    parser, actions = _sbm_flags()
    tokens = []
    for part in text.split(","):
        key, eq, value = (s.strip() for s in part.partition("="))
        if not eq:
            raise UsageError(f"bad --sbm field {part!r}, expected k=v")
        if key not in actions:
            raise UsageError(f"unknown --sbm field {key!r}")
        tokens.append(f"{actions[key].option_strings[0]}={value}")
    return parser.parse_args(tokens)


def _generate_sbm(spec):
    """The block model of a namespace of generator flags; a bad value is a usage error."""
    try:
        return gdata.generate_sbm(spec.classes, spec.per_class, spec.p_in, spec.p_out, spec.f,
                                  spec.signal, spec.seed)
    except ValueError as e:
        raise UsageError(str(e)) from e


def _load_dataset(args):
    if getattr(args, "sbm", None):
        return _generate_sbm(_parse_sbm_spec(args.sbm))
    if not getattr(args, "data", None):
        raise UsageError("either --data or --sbm is required")
    return gdata.load_bundle(args.data)


def _load_checked(args, runs, variant, fixed_splits):
    """The dataset for ``runs``, (trainer, cfg) pairs, each checked by ``check_run``.

    Every run is checked before the data loads, and its LoRA rank against the
    feature width before any run trains.
    """
    try:
        for trainer, cfg in runs:
            check_run(cfg, trainer, variant)
    except ValueError as e:
        raise UsageError(str(e)) from None
    data = _load_dataset(args)
    if fixed_splits and not getattr(args, "sbm", None):
        _require_splits(data, ("train", "val", "test"), args.data)
    try:
        for trainer, cfg in runs:
            check_run(cfg, trainer, variant, data.f)
    except ValueError as e:
        raise UsageError(f"{e}; lower --rank or raise --hidden-dim") from None
    return data


def _require_splits(data, names, bundle):
    """Raise DataError, naming the bundle's splits.json, for an empty split in ``names``."""
    for name in names:
        if getattr(data.splits, name).size == 0:
            raise DataError(f"the {name} split is empty", file=Path(bundle) / "splits.json")


def _resplit(data, seed):
    """Fresh evaluation split: 20/class train, val/test capped at 1000 each."""
    per_class = min(20, int(np.bincount(data.labels).min()))
    rest = data.n - per_class * data.C
    held = min(1000, rest // 2)
    if held < 1:
        raise DataError("dataset too small to draw val/test splits")
    return data.with_splits(gdata.split_per_class(data.labels, per_class, held, held, seed))


def run_repeats(data, cfg, trainer, variant, repeats, fixed_splits):
    """Train ``repeats`` models with seeds cfg.seed..cfg.seed+repeats-1.

    Unless fixed_splits is set, each repeat redraws the train/val/test split
    with its own seed. Returns (stacks, reports).
    """
    stacks, reports = [], []
    for k in range(repeats):
        seed = cfg.seed + k
        run_cfg = replace(cfg, seed=seed)
        run_data = data if fixed_splits else _resplit(data, seed)
        stack, report = train(run_data, run_cfg, trainer=trainer, variant=variant)
        stacks.append(stack)
        reports.append(report)
    return stacks, reports


def _summary(reports):
    """(mean, std) of the reports' test accuracies, then their mean wall clock and epochs."""
    accs = [r.test_acc for r in reports]
    return (statistics.fmean(accs), statistics.stdev(accs) if len(accs) > 1 else 0.0,
            statistics.fmean(r.total_wall_clock for r in reports),
            statistics.fmean(r.total_epochs for r in reports))


# ---------------------------------------------------------------- subcommands

def cmd_prepare(args):
    ds = (_generate_sbm(args) if args.kind == "sbm" else
          gdata.load_planetoid(args.content, args.cites, name=args.name,
                               split_seed=args.split_seed))
    gdata.save_bundle(ds, args.out)
    print(f"wrote bundle {ds.name}: n={ds.n} f={ds.f} c={ds.C} "
          f"edges={ds.adjacency.nnz // 2} -> {args.out}")
    return 0


@contextlib.contextmanager
def _output_dir(path):
    """Make the directory ``path`` before a run writes into it; if the run raises,
    remove the directory again when it was made here and is still empty."""
    out = Path(path)
    made = not out.exists()
    out.mkdir(parents=True, exist_ok=True)
    try:
        yield out
    except BaseException:
        if made and not any(out.iterdir()):
            out.rmdir()
        raise


def _write_summary_csv(path, rows, header):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def cmd_train(args):
    cfg, trainer, variant, repeats, fixed = _settings(args, "standard", 1)
    data = _load_checked(args, [(trainer, cfg)], variant, fixed)
    with _output_dir(args.out) as out:
        stacks, reports = run_repeats(data, cfg, trainer, variant, repeats, fixed)

    blas = blas_info()  # results are bitwise for one BLAS build, kernel set and thread count
    for k, (stack, report) in enumerate(zip(stacks, reports)):
        (out / f"report_seed{cfg.seed + k}.json").write_text(
            json.dumps({**asdict(report), **blas}, indent=1))
        ckpt.save_checkpoint(stack, out / f"model_seed{cfg.seed + k}.ckpt")

    mean, std, wall, _ = _summary(reports)
    _write_summary_csv(
        out / "summary.csv",
        [[data.name, trainer, variant, cfg.depth, repeats,
          f"{mean:.6f}", f"{std:.6f}", f"{wall:.3f}"]],
        ["dataset", "trainer", "variant", "depth", "repeats",
         "mean_test_acc", "std_test_acc", "mean_wall_clock_s"],
    )
    print(f"{data.name} {trainer}/{variant} depth={cfg.depth}: "
          f"test acc {mean:.4f} +/- {std:.4f} over {repeats} seed(s)")
    return 0


ABLATION_CELLS = (
    ("gcn", "standard", {}),
    ("gcn+lt", "lgt", {"use_lora": False, "new_layer_init": "glorot"}),
    ("gcn+lt+lora", "lgt", {"use_lora": True, "new_layer_init": "glorot"}),
    ("gcn+lt+lora+identity", "lgt", {"use_lora": True, "new_layer_init": "identity"}),
)


def _run_cell(data, variant, repeats, fixed_splits, cell):
    """Train one checked sweep cell, ``(label, value, trainer, cfg)``; returns
    ``(label, value, mean, std, wall, epochs)``. Module-level so process pools can pickle it."""
    label, value, trainer, cfg = cell
    _, reports = run_repeats(data, cfg, trainer, variant, repeats, fixed_splits)
    return (label, value, *_summary(reports))


def _format_table(rows, columns):
    widths = [max(len(str(r[i])) for r in [columns] + rows) for i in range(len(columns))]
    lines = ["  ".join(str(c).ljust(w) for c, w in zip(columns, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def cmd_sweep(args):
    cfg, trainer, variant, repeats, fixed = _settings(args, "lgt", 5)
    # (label, value, trainer, cfg) of each cell
    if args.axis == "ablation":
        if args.values:
            raise UsageError("--values only applies to depth/rank axes")
        cells = [(label, label, cell_trainer, replace(cfg, **overrides))
                 for label, cell_trainer, overrides in ABLATION_CELLS]
    elif not args.values:
        raise UsageError(f"--values required for the {args.axis} axis")
    elif args.axis == "depth":
        cells = [(f"depth{v}", v, trainer, replace(cfg, depth=v)) for v in args.values]
    else:
        cells = [(f"rank{v}", v, "lgt", replace(cfg, lora_rank=v)) for v in args.values]
    data = _load_checked(args, [cell[2:] for cell in cells], variant, fixed)
    run = partial(_run_cell, data, variant, repeats, fixed)
    # the pool forks all its workers at once, so it gets no more than there are cells
    workers = min(args.workers, len(cells))
    with _output_dir(args.out) as out:
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(run, cells))
        else:
            results = list(map(run, cells))

    _write_summary_csv(out / "sweep.csv",
                       [[args.axis, label, value, f"{mean:.6f}", f"{std:.6f}", f"{epochs:.1f}",
                         f"{wall:.3f}"] for label, value, mean, std, wall, epochs in results],
                       ["axis", "cell", "value", "mean_test_acc", "std_test_acc",
                        "mean_epochs", "mean_wall_clock_s"])
    table = _format_table(
        [[label, f"{mean:.4f} +/- {std:.4f}", f"{epochs:.1f}", f"{wall:.2f}s"]
         for label, _, mean, std, wall, epochs in results],
        ["cell", "test_acc", "epochs", "wall_clock"])
    if args.axis == "rank":
        best = max(results, key=lambda r: r[2])
        table += f"\nbest mean accuracy at {best[0]}"
    (out / "table.txt").write_text(table + "\n")
    print(table)
    return 0


def cmd_gradcheck(args):
    lo, hi = GRAD_CHECK_EPS
    if not lo <= args.eps <= hi:
        raise UsageError(f"--eps must be in [{lo:g}, {hi:g}]")
    if not 0 < args.threshold < float("inf"):
        raise UsageError("--threshold must be a positive finite number")
    err = gc.run_suite(seeds=args.seeds, eps=args.eps, corrupt_backward=args.corrupt_backward)
    head_err = max(gc.sgc_head_case(s, eps=args.eps) for s in range(min(args.seeds, 10)))
    print(f"stack checks: {args.seeds} seeds, max relative error {err:.3e}")
    print(f"propagation head check: max relative error {head_err:.3e}")
    ok = err < args.threshold and head_err < args.threshold
    print(f"{'PASS' if ok else 'FAIL'} (threshold {args.threshold:.1e})")
    if not ok:
        raise NumericalAbort("gradient check failed")
    return 0


def _load_checkpoint_and_bundle(args):
    """The checkpoint and the bundle of eval and export-embeddings, checked to fit."""
    stack = ckpt.load_checkpoint(args.checkpoint)
    data = _load_dataset(args)
    if stack.in_dim != data.f:
        raise DataError(f"bundle has {data.f} features, checkpoint {args.checkpoint} "
                        f"expects {stack.in_dim}", file=args.data)
    return stack, data


def cmd_eval(args):
    stack, data = _load_checkpoint_and_bundle(args)
    _require_splits(data, (args.split,), args.data)
    acc = evaluate(stack, data, getattr(data.splits, args.split))
    print(f"{args.split} accuracy: {acc:.4f}")
    return 0


def cmd_export(args):
    stack, data = _load_checkpoint_and_bundle(args)
    try:
        gmetrics.export_embeddings(stack, data, args.layer, args.out)
    except ValueError as e:
        raise UsageError(str(e)) from e
    print(f"wrote layer {args.layer} embeddings to {args.out}")
    return 0


# ---------------------------------------------------------------- arg parsing

def _add_train_flags(p):
    """Add the flags of train and sweep; returns {config key: action} of those a file may set."""
    p.add_argument("--data", help="bundle directory")
    p.add_argument("--sbm", help="inline block-model spec, e.g. "
                   "'classes=4,per_class=100,p_in=0.1,p_out=0.01,f=32,signal=2,seed=0'")
    p.add_argument("--config", help="key = value config file")
    add = p.add_argument
    actions = [
        add("--trainer", choices=TRAINERS),
        add("--variant", choices=VARIANTS),
        add("--depth", type=int),
        add("--hidden-dim", dest="hidden_dim", type=int),
        add("--lr", type=float),
        add("--weight-decay", dest="weight_decay", type=float),
        add("--dropout", dest="dropout_p", type=float),
        add("--max-epochs", dest="max_epochs", type=int),
        add("--patience", type=int),
        add("--rank", dest="lora_rank", type=int),
        add("--seed", type=int),
        add("--repeats", type=count),
        add("--no-lora", dest="use_lora", action="store_false", default=None),
        add("--new-layer-init", dest="new_layer_init", choices=["identity", "glorot"]),
        add("--pairnorm-s", dest="pairnorm_s", type=float),
        add("--no-row-normalize", dest="row_normalize_features", action="store_false",
            default=None),
        add("--fixed-splits", dest="fixed_splits", action="store_true", default=None,
            help="reuse the bundle's splits for every repeat"),
    ]
    return {a.dest: a for a in actions}


def make_parser():
    parser = Parser(prog="growgcn", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    prep = sub.add_parser("prepare", help="write a dataset bundle")
    prep.set_defaults(func=cmd_prepare)
    prep_sub = prep.add_subparsers(dest="kind", required=True)
    ps = prep_sub.add_parser("sbm", help="stochastic block model", parents=[_sbm_flags()[0]])
    ps.add_argument("--out", required=True)
    pp = prep_sub.add_parser("planetoid", help="convert .content/.cites files")
    pp.add_argument("--content", required=True)
    pp.add_argument("--cites", required=True)
    pp.add_argument("--name", default="cora")
    pp.add_argument("--split-seed", dest="split_seed", type=seed, default=0)
    pp.add_argument("--out", required=True)

    tr = sub.add_parser("train", help="train one configuration")
    tr.set_defaults(func=cmd_train, config_flags=_add_train_flags(tr))
    tr.add_argument("--out", required=True, help="output directory")

    sw = sub.add_parser("sweep", help="grid over depth, rank, or ablation cells")
    sw.set_defaults(func=cmd_sweep, config_flags=_add_train_flags(sw))
    sw.add_argument("--axis", choices=["depth", "rank", "ablation"], required=True)
    sw.add_argument("--values", type=counts, help="comma-separated ints for depth/rank axes")
    sw.add_argument("--workers", type=count, default=1)
    sw.add_argument("--out", required=True, help="output directory")

    gcp = sub.add_parser("gradcheck", help="randomized gradient verification")
    gcp.add_argument("--seeds", type=count, default=100)
    gcp.add_argument("--eps", type=float, default=1e-5)
    gcp.add_argument("--threshold", type=float, default=1e-6)
    gcp.add_argument("--corrupt-backward", action="store_true",
                     help="sabotage the conv layers' backward to prove the check can fail")
    gcp.set_defaults(func=cmd_gradcheck)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a bundle")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--split", choices=["train", "val", "test"], default="test")
    ev.set_defaults(func=cmd_eval)

    ex = sub.add_parser("export-embeddings", help="dump one layer's features")
    ex.add_argument("--checkpoint", required=True)
    ex.add_argument("--data", required=True)
    ex.add_argument("--layer", type=int, required=True)
    ex.add_argument("--out", required=True)
    ex.set_defaults(func=cmd_export)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # the file's flags go ahead of the command line's, so a flag given on both wins
            at = argv.index(args.command) + 1
            file_flags = read_config_file(args.config, args.config_flags)
            args = parser.parse_args(argv[:at] + file_flags + argv[at:])
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericalAbort as e:
        print(f"numerical abort: {e}", file=sys.stderr)
        return 3
    except OSError as e:  # an unwritable output path; a failed read is a DataError
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:  # an input too large for this machine is a data problem
        print(f"data error: out of memory: {str(e) or 'an allocation failed'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
