"""Write a workload's graph bundle from its seed.

The benchmark owns this generator, so the inputs of a workload stay the same
when the program's own ``generate_sbm`` changes. Edges are sampled block pair
by block pair without materialising the dense n x n matrix, which keeps the
10k-node graph cheap to make. Bundles follow the layout ``growgcn.load_bundle``
reads and are cached under ``bench/cache/<workload>-s<seed>-v<FORMAT>-<spec digest>``,
so a change to a workload's graph or split makes new bundles.

    python3 bench/gen.py --workload sbm400-d16 --seed 1
"""

import argparse
import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from workloads import WORKLOADS  # noqa: E402

CACHE = Path(__file__).resolve().parent / "cache"
FORMAT = 3  # bump when the generator's output changes, to invalidate the cache


def sample_edges(rng, labels, classes, p_in, p_out):
    """Undirected edges (i < j) with P[edge] = p_in inside a class, p_out across."""
    starts = np.searchsorted(labels, np.arange(classes + 1))
    out = []
    for a in range(classes):
        na = starts[a + 1] - starts[a]
        for b in range(a, classes):
            nb = starts[b + 1] - starts[b]
            if a == b:
                iu, ju = np.triu_indices(na, k=1)
                m = rng.binomial(iu.size, p_in)
                pick = rng.choice(iu.size, size=m, replace=False)
                i, j = iu[pick], ju[pick]
            else:
                m = rng.binomial(na * nb, p_out)
                pick = rng.choice(na * nb, size=m, replace=False)
                i, j = pick // nb, pick % nb
            out.append(np.stack([i + starts[a], j + starts[b]], axis=1))
    edges = np.concatenate(out)
    return edges[np.lexsort((edges[:, 1], edges[:, 0]))]


def make_bundle(spec, seed):
    g, s = spec["graph"], spec["split"]
    rng = np.random.default_rng([seed, FORMAT])
    C, k = g["classes"], g["per_class"]
    n = C * k
    labels = np.repeat(np.arange(C), k)
    edges = sample_edges(rng, labels, C, g["p_in"], g["p_out"])
    f = g["f"]
    means = np.zeros((C, f))
    for c in range(C):
        means[c, c * f // C:(c + 1) * f // C] = g["signal"]
    X = means[labels] + rng.standard_normal((n, f))

    # class-balanced splits: a model that predicts one class scores exactly 1/C,
    # so a collapsed baseline's accuracy does not carry the test set's class mix
    parts = {"train": [], "val": [], "test": []}
    for c in range(C):
        pool = rng.permutation(np.where(labels == c)[0])
        lo = 0
        for name in parts:
            parts[name].append(pool[lo:lo + s[name]])
            lo += s[name]
    splits = {k: np.sort(np.concatenate(v)).tolist() for k, v in parts.items()}
    return {"n": n, "f": f, "c": C, "edges": edges, "X": X, "labels": labels,
            "splits": splits}


def write_bundle(b, path, name):
    path.mkdir(parents=True)
    (path / "meta.json").write_text(json.dumps({"n": b["n"], "f": b["f"], "c": b["c"],
                                                "name": name}) + "\n")
    np.savetxt(path / "edges.tsv", b["edges"], fmt="%d", delimiter="\t")
    np.savetxt(path / "features.csv", b["X"], fmt="%.17g", delimiter=",")
    np.savetxt(path / "labels.txt", b["labels"], fmt="%d")
    (path / "splits.json").write_text(json.dumps(b["splits"]) + "\n")


def bundle_path(workload, seed):
    spec = {k: WORKLOADS[workload][k] for k in ("graph", "split")}
    digest = hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()[:8]
    return CACHE / f"{workload}-s{seed}-v{FORMAT}-{digest}"


def ensure_bundle(workload, seed):
    """Return the cached bundle directory, generating it first if it is missing."""
    path = bundle_path(workload, seed)
    if path.is_dir():
        return path
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    write_bundle(make_bundle(WORKLOADS[workload], seed), tmp, f"{workload}-s{seed}")
    os.replace(tmp, path)
    return path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    print(ensure_bundle(args.workload, args.seed))


if __name__ == "__main__":
    main()
