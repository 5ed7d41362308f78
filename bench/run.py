"""One-command benchmark for growgcn.

    python3 bench/run.py --workload sbm400-d16 --seed 1 --seconds 36 --trace 0

Run it from the repository root. It generates (or reuses) the workload's
seeded bundle in a separate process, times set-up in fresh processes, runs the
workload's calls in a fresh measuring process with the BLAS thread count
pinned, checks the outputs, and prints every metric by name and unit. Call
timings are scaled to the reference speed (see reference.py); the wall times
they come from are printed beside them. The last
line of standard output is one JSON object: with ``--trace 0`` it carries the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced round.
Full records, the environment and the spans go to ``bench/results/``.
Exit status 0 means every call ran and passed its correctness check.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import gen  # noqa: E402
from layer_metrics import UNITS as LAYER_UNITS  # noqa: E402
from reference import speed_factor  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEADLINE_S = 175  # the whole command must finish inside 180 s
SETUP_PROBES = 2  # extra fresh processes that only set up; the measuring process is one more
BLAS_THREADS = 1  # measured faster than 2 on the 2-core reference machine; never above nproc

# Printed but left out of the JSON metrics. fail_frac is failed / attempted,
# which the JSON carries as its own fields, and it is 0 on a correct commit.
# baseline_test_acc is the accuracy of a collapsed model: on sbm400-d16 it is
# 0.25 for most seeds and up to 0.5 for a few, so no bound on it would hold.
E2E_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "epoch_ms": "ms",
    "test_acc": "fraction",
    "baseline_train_s": "s",
    "baseline_epoch_ms": "ms",
    "baseline_test_acc": "fraction",
    "infer_ms": "ms",
    "peak_rss_mb": "MB",
    "fail_frac": "fraction",
}
NOT_IN_JSON = ("fail_frac", "baseline_test_acc")
# call timings, each scaled by the speed factor around its call to read at reference speed
AT_REFERENCE_SPEED = ("train_s", "epoch_ms", "baseline_train_s", "baseline_epoch_ms",
                      "infer_ms")


class BenchError(Exception):
    pass


def child_env(root):
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[k] = threads
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_child(cmd, deadline, env=None):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"out of time before running {cmd[1]}")
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{Path(cmd[1]).name} did not finish in time") from None
    if p.returncode != 0:
        raise BenchError(f"{Path(cmd[1]).name} exited {p.returncode}:\n{p.stderr[-2000:]}")
    return p.stdout


def source_identity(root):
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    h = hashlib.sha256()
    for f in sorted((root / "src" / "growgcn").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return {"git_sha": sha, "src_sha256": h.hexdigest()[:16]}


def _of(rounds, prefix):
    return [r for rd in rounds for r in rd if r["kind"].startswith(prefix)]


def end_to_end(raw, setup_samples, nominal_s):
    """The end-to-end metrics of an untraced run, from the measuring process's records.

    Each call's time is scaled by the speed factor of the reference samples taken
    in and around it. Returns the metrics, the scaled ones again from wall times
    alone, and the speed factor of the whole run.
    """
    rounds, ref = raw["rounds"], raw["reference"]
    wall = _e2e(rounds, setup_samples, raw["peak_rss_mb"], lambda r: r["seconds"])
    metrics = _e2e(rounds, setup_samples, raw["peak_rss_mb"],
                   lambda r: r["seconds"] * speed_factor(nominal_s, ref, *r["span"]))
    speed = speed_factor(nominal_s, ref)
    return metrics, {k: wall[k] for k in AT_REFERENCE_SPEED}, speed


def _e2e(rounds, setup_samples, peak_rss_mb, seconds):
    """The metrics, with seconds(record) as each call's time."""
    staged = [r for r in _of(rounds, "staged") if "epochs" in r]
    base = [r for r in _of(rounds, "baseline.") if "epochs" in r]
    infer = [r for r in _of(rounds, "infer") if "error" not in r]
    if not (staged and base and infer):
        raise BenchError("too many calls failed to compute the metrics")
    base_per_round = []  # (seconds, epochs) of each round's baseline calls together
    for rd in rounds:
        calls = [r for r in rd if r["kind"].startswith("baseline.") and "epochs" in r]
        if calls:
            base_per_round.append((sum(seconds(r) for r in calls),
                                   sum(r["epochs"] for r in calls)))
    return {
        "setup_s": statistics.median(setup_samples),
        "train_s": statistics.median(seconds(r) for r in staged),
        "epoch_ms": 1e3 * statistics.median(seconds(r) / r["epochs"] for r in staged),
        "test_acc": statistics.fmean(r["test_acc"] for r in staged),
        "baseline_train_s": statistics.median(s for s, _ in base_per_round),
        "baseline_epoch_ms": 1e3 * statistics.median(s / e for s, e in base_per_round),
        "baseline_test_acc": statistics.fmean(r["test_acc"] for r in base),
        "infer_ms": 1e3 * statistics.median(seconds(r) for r in infer),
        "peak_rss_mb": peak_rss_mb,
    }


def check_trace(raw):
    """Mark traced training calls whose epochs or accuracy differ from the untraced round."""
    plain = {r["kind"]: r for r in raw["rounds"][-1] if "epochs" in r}
    for r in raw["traced"]:
        ref = plain.get(r["kind"])
        if "epochs" in r and ref is not None and (
                r["epochs"] != ref["epochs"] or r["test_acc"] != ref["test_acc"]):
            r["ok"] = False
            r["error"] = (f"traced run gives {r['epochs']} epochs / {r['test_acc']} accuracy, "
                          f"untraced {ref['epochs']} / {ref['test_acc']}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description="growgcn benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "growgcn" / "__init__.py").is_file():
        print("bench: run from the growgcn repository root (src/growgcn not found)",
              file=sys.stderr)
        return 2
    py = sys.executable
    env = child_env(root)
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{args.workload}-s{args.seed}-trace{args.trace}"

    try:
        cached = gen.bundle_path(args.workload, args.seed).is_dir()
        t = time.monotonic()
        bundle = run_child([py, str(HERE / "gen.py"), "--workload", args.workload,
                            "--seed", str(args.seed)], deadline).strip()
        gen_s = time.monotonic() - t

        setup_samples = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                t0 = time.monotonic()
                setup_samples.append(float(run_child(
                    [py, str(HERE / "measure.py"), "--setup-only", "--bundle", bundle,
                     "--t0", repr(t0)], deadline, env)))
        t0 = time.monotonic()
        run_child([py, str(HERE / "measure.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--bundle", bundle, "--t0", repr(t0),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--out", f"{stem}-raw.json"], deadline, env)
        raw = json.loads(Path(f"{stem}-raw.json").read_text())
        setup_samples.append(raw["setup_s"])

        wall, speed = {}, None
        if args.trace:
            check_trace(raw)
            metrics, units = raw["per_layer"], LAYER_UNITS
        else:
            metrics, wall, speed = end_to_end(
                raw, setup_samples, WORKLOADS[args.workload]["reference"]["nominal_s"])
            units = E2E_UNITS
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1

    records = [r for rd in raw["rounds"] for r in rd] + raw.get("traced", [])
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    env_info = {**source_identity(root), "nproc": len(os.sched_getaffinity(0)),
                **raw["env"]}
    if not args.trace:
        metrics["fail_frac"] = failed / attempted

    print(f"growgcn benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env_info.items()))
    print(f"generator: {gen_s:.2f} s ({'cached' if cached else 'generated'}) -> {bundle}")
    print(f"calls: {len(raw['rounds'])} untraced round(s), {attempted} attempted, "
          f"{failed} failed; set-up samples: {len(setup_samples)}")
    for r in records:
        if not r["ok"]:
            print(f"  FAILED {r['kind']}: {r.get('error')}")
    if speed is not None:
        print(f"speed factor {speed:.4f} over the whole run; timings marked * are each "
              "scaled by the factor around their call, and their wall time follows")
    for name, value in metrics.items():
        note = f"  * wall {wall[name]:.6g}" if name in wall else ""
        print(f"  {name:36s} {value:14.6g} {units[name]}{note}")

    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "env": env_info, "generator_s": gen_s, "setup_samples": setup_samples,
               "attempted": attempted, "failed": failed, "speed_factor": speed, "wall": wall,
               "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    Path(f"{stem}.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items() if k not in NOT_IN_JSON},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
