#!/usr/bin/env python3
"""Re-run the experiment grid and drop CSV tables under results/.

Always runs the gradient check and the synthetic block-model experiments
(depth sweep, ablation, rank sweep). When a citation bundle is available
(at $GROWGCN_CORA or data/cora, see `growgcn prepare planetoid`) the same
sweeps also run there at paper scale, which takes a while on CPU.

    python scripts/reproduce.py [--fast] [--workers N]
"""

import os
import sys
from pathlib import Path

from growgcn.cli import Parser, UsageError, count, main as cli

SBM = "classes=4,per_class=100,p_in=0.1,p_out=0.01,f=32,signal=2,seed=0"


def run(label, argv):
    print(f"\n=== {label}: growgcn {' '.join(argv)}")
    rc = cli(argv)
    if rc != 0:
        print(f"{label} exited {rc}", file=sys.stderr)
        sys.exit(rc)


def find_cora():
    env = os.environ.get("GROWGCN_CORA")
    for root in ([Path(env)] if env else []) + [Path("data/cora")]:
        if (root / "meta.json").exists():
            return str(root)
    return None


if __name__ == "__main__":
    # a bad flag exits 1 with one line, as the growgcn commands do, before any step runs
    ap = Parser(description=__doc__.splitlines()[0])
    ap.add_argument("--fast", action="store_true",
                    help="smaller budgets, for smoke-testing the pipeline")
    ap.add_argument("--workers", type=count, default=1)
    ap.add_argument("--out", default="results")
    try:
        args = ap.parse_args()
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(1)

    out = Path(args.out)
    repeats = "2" if args.fast else "5"
    budget = ["--max-epochs", "60", "--patience", "15"] if args.fast else []
    w = ["--workers", str(args.workers)]

    run("gradient check", ["gradcheck"])
    run("sbm depth sweep",
        ["sweep", "--axis", "depth", "--values", "2,4,8,16", "--sbm", SBM,
         "--trainer", "lgt", "--repeats", repeats, *budget, *w,
         "--out", str(out / "sbm-depth-lgt")])
    run("sbm depth sweep (standard)",
        ["sweep", "--axis", "depth", "--values", "2,4,8,16", "--sbm", SBM,
         "--trainer", "standard", "--repeats", repeats, *budget, *w,
         "--out", str(out / "sbm-depth-standard")])
    run("sbm ablation",
        ["sweep", "--axis", "ablation", "--sbm", SBM, "--depth", "16",
         "--repeats", repeats, *budget, *w, "--out", str(out / "sbm-ablation")])
    run("sbm rank sweep",
        ["sweep", "--axis", "rank", "--values", "1,4,10,32", "--sbm", SBM,
         "--depth", "8", "--repeats", repeats, *budget, *w,
         "--out", str(out / "sbm-rank")])

    cora = find_cora()
    if cora is None:
        print("\nno citation bundle found (data/cora or $GROWGCN_CORA); "
              "skipping the citation-network grid")
        sys.exit(0)
    run("cora depth sweep (lgt)",
        ["sweep", "--axis", "depth", "--values", "4,8,16,32", "--data", cora,
         "--trainer", "lgt", "--repeats", repeats, *budget, *w,
         "--out", str(out / "cora-depth-lgt")])
    run("cora depth sweep (standard)",
        ["sweep", "--axis", "depth", "--values", "2,4,8,16,32", "--data", cora,
         "--trainer", "standard", "--repeats", repeats, *budget, *w,
         "--out", str(out / "cora-depth-standard")])
    run("cora sgc baseline",
        ["sweep", "--axis", "depth", "--values", "2,8,32", "--data", cora,
         "--trainer", "standard", "--variant", "sgc", "--repeats", repeats,
         *budget, *w, "--out", str(out / "cora-depth-sgc")])
    run("cora ablation",
        ["sweep", "--axis", "ablation", "--data", cora, "--depth", "16",
         "--repeats", repeats, *budget, *w, "--out", str(out / "cora-ablation")])
    run("cora rank sweep",
        ["sweep", "--axis", "rank", "--values", "1,4,10,32", "--data", cora,
         "--depth", "8", "--repeats", repeats, *budget, *w,
         "--out", str(out / "cora-rank")])
