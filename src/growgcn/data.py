"""Datasets: bundles on disk, the citation-network converter, splits, a block-model generator.

Every text file is read as UTF-8.

Bundle layout (one directory per dataset):

    meta.json       {"n": int, "f": int, "c": int, "name": str}
    edges.tsv       one undirected edge "i<TAB>j" per line, 0-based
    features.csv    n rows, f comma-separated floats
    labels.txt      n lines, one integer class id in [0, c)
    splits.json     {"train": [...], "val": [...], "test": [...]}
"""

import json
import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DataError
from .sparse import SparseMatrix, build_adjacency


@dataclass(frozen=True)
class Splits:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        for name in ("train", "val", "test"):
            try:
                idx = np.asarray(getattr(self, name))
            except ValueError:
                raise DataError(f"{name} split is not an index list") from None
            if idx.size and idx.dtype.kind not in "iu":
                raise DataError(f"{name} split holds non-integer indices")
            idx = idx.astype(np.int64)
            if idx.ndim != 1:
                raise DataError(f"{name} split must be a flat index list")
            if idx.size and np.unique(idx).size != idx.size:
                raise DataError(f"{name} split contains duplicate indices")
            object.__setattr__(self, name, np.sort(idx))
        for a, b in (("train", "val"), ("train", "test"), ("val", "test")):
            if np.intersect1d(getattr(self, a), getattr(self, b)).size:
                raise DataError(f"{a}/{b} splits overlap")


@dataclass(eq=False)
class GraphDataset:
    n: int
    f: int
    C: int
    X: np.ndarray
    labels: np.ndarray
    adjacency: SparseMatrix
    splits: Splits
    name: str = ""

    def validate(self):
        if self.X.shape != (self.n, self.f):
            raise DataError(
                f"features shape {self.X.shape} does not match declared n={self.n}, f={self.f}"
            )
        if self.labels.shape != (self.n,):
            raise DataError(f"labels shape {self.labels.shape} does not match n={self.n}")
        if self.labels.min() < 0 or self.labels.max() >= self.C:
            raise DataError(f"labels outside [0, {self.C})")
        present = np.unique(self.labels)
        if present.size != self.C:
            missing = sorted(set(range(self.C)) - set(present.tolist()))
            raise DataError(f"classes {missing} never appear in labels")
        if self.adjacency.shape != (self.n, self.n):
            raise DataError("adjacency shape does not match n")
        if not self.adjacency.is_symmetric():
            raise DataError("adjacency is not symmetric")
        for name in ("train", "val", "test"):
            idx = getattr(self.splits, name)
            if idx.size and (idx.min() < 0 or idx.max() >= self.n):
                raise DataError(f"{name} split index out of range for n={self.n}")
        return self

    def with_splits(self, splits):
        return replace(self, splits=splits)


def row_normalize(X):
    """Scale each row to unit L1 norm; all-zero rows stay zero."""
    X = np.asarray(X)
    s = np.abs(X).sum(axis=1, keepdims=True)
    s[s == 0] = 1.0
    return X / s


def _read_text(path):
    """A UTF-8 text file's contents; an unreadable or undecodable file raises DataError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(str(e), file=path) from e


def _read_json_object(path):
    try:
        obj = json.loads(_read_text(path))
    except json.JSONDecodeError as e:
        raise DataError(f"invalid JSON: {e}", file=path) from e
    if not isinstance(obj, dict):
        raise DataError("expected a JSON object", file=path)
    return obj


def _data_line(path, row):
    """1-based file line of data row ``row``, skipping lines np.loadtxt skips."""
    seen = -1
    for lineno, line in enumerate(_read_text(path).splitlines(), 1):
        if line.split("#", 1)[0].strip():
            seen += 1
            if seen == row:
                return lineno
    return None


def load_bundle(path):
    path = Path(path)
    if not path.is_dir():
        raise DataError(f"bundle directory not found: {path}")
    for fname in ("meta.json", "edges.tsv", "features.csv", "labels.txt", "splits.json"):
        if not (path / fname).is_file():
            raise DataError(f"missing bundle file {fname}", file=path)

    meta = _read_json_object(path / "meta.json")
    for key in ("n", "f", "c"):
        if type(meta.get(key)) is not int or meta[key] < 1:
            raise DataError(f"meta key '{key}' must be a positive integer", file=path / "meta.json")
    n, f, c = meta["n"], meta["f"], meta["c"]

    edges = []
    epath = path / "edges.tsv"
    for lineno, line in enumerate(_read_text(epath).splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError("expected 'i<TAB>j'", file=epath, line=lineno)
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise DataError(f"non-integer edge endpoint {line!r}", file=epath, line=lineno) from None
        if not (0 <= i < n and 0 <= j < n):
            raise DataError(f"edge ({i}, {j}) out of range for n={n}", file=epath, line=lineno)
        edges.append((i, j))

    fpath = path / "features.csv"
    try:
        with warnings.catch_warnings():  # a file without data is reported below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            X = np.loadtxt(fpath, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as e:
        raise DataError(f"malformed float field ({e})", file=fpath) from e
    except OSError as e:
        raise DataError(str(e), file=fpath) from e
    if X.shape[0] == 0:
        raise DataError(f"no data rows, expected n={n} rows of f={f} values", file=fpath)
    if X.shape != (n, f):
        raise DataError(
            f"features shape {X.shape} does not match declared n={n}, f={f}", file=fpath
        )
    finite = np.isfinite(X)
    if not finite.all():
        row = int(np.argmin(finite.all(axis=1)))
        raise DataError("non-finite feature value", file=fpath, line=_data_line(fpath, row))

    lpath = path / "labels.txt"
    # (file line, text) of each non-blank line
    lines = [(k, ln) for k, ln in enumerate(_read_text(lpath).splitlines(), 1) if ln.strip()]
    if len(lines) != n:
        raise DataError(f"expected {n} labels, found {len(lines)}", file=lpath)
    labels = np.empty(n, dtype=np.int64)
    for row, (lineno, line) in enumerate(lines):
        try:
            v = int(line)
        except ValueError:
            raise DataError(f"non-integer label {line!r}", file=lpath, line=lineno) from None
        if not 0 <= v < c:
            raise DataError(f"label {v} outside [0, {c})", file=lpath, line=lineno)
        labels[row] = v

    spath = path / "splits.json"
    raw = _read_json_object(spath)
    try:
        splits = Splits(raw["train"], raw["val"], raw["test"])
    except KeyError as e:
        raise DataError(f"missing split key {e}", file=spath) from None

    ds = GraphDataset(
        n=n, f=f, C=c, X=X, labels=labels,
        adjacency=build_adjacency(edges, n), splits=splits,
        name=str(meta.get("name", path.name)),
    )
    return ds.validate()


def save_bundle(dataset, path):
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    meta = {"n": dataset.n, "f": dataset.f, "c": dataset.C, "name": dataset.name}
    (path / "meta.json").write_text(json.dumps(meta, indent=1) + "\n")

    adj = dataset.adjacency
    rows = adj.row_indices()
    upper = rows < adj.col_indices
    lines = [f"{i}\t{j}" for i, j in zip(rows[upper], adj.col_indices[upper])]
    (path / "edges.tsv").write_text("\n".join(lines) + ("\n" if lines else ""))

    np.savetxt(path / "features.csv", dataset.X, delimiter=",", fmt="%.17g")
    (path / "labels.txt").write_text("\n".join(str(v) for v in dataset.labels) + "\n")
    splits = {k: getattr(dataset.splits, k).tolist() for k in ("train", "val", "test")}
    (path / "splits.json").write_text(json.dumps(splits) + "\n")
    return path


def load_planetoid(content_path, cites_path, name="cora", split_seed=0):
    """Convert the classic citation-network distribution to a bundle.

    ``.content`` lines: <paper_id> <f binary features> <class_name>, each id
    once; ``.cites`` lines: <cited> <citing>. Unknown ids in .cites are skipped
    (the public files contain a handful).
    """
    ids, rows, class_names = {}, [], []  # ids: each paper id's line
    for lineno, line in enumerate(_read_text(content_path).splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) < 3:
            raise DataError("expected <id> <features...> <label>",
                            file=content_path, line=lineno)
        first = ids.setdefault(parts[0], lineno)
        if first != lineno:
            raise DataError(f"repeated paper id {parts[0]!r}, first on line {first}",
                            file=content_path, line=lineno)
        try:
            row = [float(x) for x in parts[1:-1]]
        except ValueError:
            raise DataError("non-numeric feature field", file=content_path,
                            line=lineno) from None
        if not all(math.isfinite(v) for v in row):
            raise DataError("non-finite feature value", file=content_path, line=lineno)
        if rows and len(row) != len(rows[0]):
            raise DataError(f"row has {len(row)} features, first row has {len(rows[0])}",
                            file=content_path, line=lineno)
        rows.append(row)
        class_names.append(parts[-1])
    if not ids:
        raise DataError("no rows", file=content_path)
    f = len(rows[0])
    index = {pid: i for i, pid in enumerate(ids)}
    classes = sorted(set(class_names))
    labels = np.array([classes.index(c) for c in class_names], dtype=np.int64)

    edges = []
    for lineno, line in enumerate(_read_text(cites_path).splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise DataError("expected '<cited> <citing>'", file=cites_path, line=lineno)
        a, b = index.get(parts[0]), index.get(parts[1])
        if a is None or b is None or a == b:
            continue
        edges.append((a, b))

    n = len(ids)
    X = np.asarray(rows, dtype=np.float64)
    held = min(1000, (n - 20 * len(classes)) // 2)
    splits = split_per_class(labels, 20, held, held, split_seed)
    ds = GraphDataset(
        n=n, f=f, C=len(classes), X=X, labels=labels,
        adjacency=build_adjacency(edges, n), splits=splits, name=name,
    )
    return ds.validate()


def split_per_class(labels, per_class, val_size, test_size, seed):
    """Random split: ``per_class`` train nodes per class, then val/test from the rest."""
    labels = np.asarray(labels)
    n = labels.shape[0]
    rng = np.random.default_rng(seed)
    train = []
    for cls in np.unique(labels):
        pool = np.where(labels == cls)[0]
        if pool.size < per_class:
            raise DataError(f"class {cls} has {pool.size} nodes, need {per_class} for train")
        train.append(rng.choice(pool, size=per_class, replace=False))
    train = np.sort(np.concatenate(train)) if train else np.empty(0, dtype=np.int64)
    rest = np.setdiff1d(np.arange(n), train)
    if rest.size < val_size + test_size:
        raise DataError(
            f"cannot draw val={val_size} and test={test_size} from {rest.size} remaining nodes"
        )
    perm = rng.permutation(rest)
    return Splits(train, perm[:val_size], perm[val_size : val_size + test_size])


def generate_sbm(classes, nodes_per_class, p_in, p_out, f, signal, seed):
    """Stochastic block model with class-aligned features.

    Node features are the class mean (``signal`` on the class's block of
    feature dimensions, zero elsewhere) plus unit Gaussian noise. Splits take
    20 nodes per class for train and divide the rest evenly into val/test.
    """
    if classes < 2:
        raise ValueError("need at least 2 classes")
    if nodes_per_class < 1:
        raise ValueError("nodes_per_class must be positive")
    if not (0.0 <= p_out <= p_in <= 1.0):
        raise ValueError("require 0 <= p_out <= p_in <= 1")
    if f < classes:
        raise ValueError(f"need f >= classes to give every class a feature block (f={f})")
    if not math.isfinite(signal):
        raise ValueError(f"signal must be a finite number, not {signal!r}")
    n = classes * nodes_per_class
    if nodes_per_class <= 20:
        raise ValueError(f"{n} nodes leave no room for val/test after 20/class train")

    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(classes), nodes_per_class)

    # the uniforms of one rng.random((n, n)), drawn in blocks of about 2^20 so
    # memory is O(b n); block row r is node lo + r, and only j > lo + r is kept
    b = max(1, 2**20 // n)
    edges = []
    for lo in range(0, n, b):
        hi = min(lo + b, n)
        prob = np.where(labels[lo:hi, None] == labels[None, :], p_in, p_out)
        upper = np.triu(rng.random((hi - lo, n)) < prob, k=lo + 1)
        edges.append(np.argwhere(upper) + [lo, 0])
    edges = np.concatenate(edges)

    means = np.zeros((classes, f))
    for cls in range(classes):
        means[cls, cls * f // classes : (cls + 1) * f // classes] = signal
    X = means[labels] + rng.standard_normal((n, f))

    held = (n - 20 * classes) // 2
    splits = split_per_class(labels, 20, held, held, rng)

    ds = GraphDataset(
        n=n, f=f, C=classes, X=X, labels=labels,
        adjacency=build_adjacency(edges, n), splits=splits,
        name=f"sbm{classes}x{nodes_per_class}",
    )
    return ds.validate()
