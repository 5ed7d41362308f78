"""Over-smoothing diagnostics and embedding export."""

import csv
from dataclasses import dataclass, field

import numpy as np

from . import layers as ly
from .sparse import normalized_laplacian


def distance_to_constant(H):
    """Relative distance of H from the nearest constant-rows matrix, in [0, 1].

    ||H - 1 mu^T||_F / max(||H||_F, 1e-12) where mu is the column-mean row.
    Holds one float64 copy of H, which is centred in place after its norm.
    """
    H = np.array(H, dtype=np.float64)
    den = max(np.linalg.norm(H), 1e-12)
    H -= H.mean(axis=0, keepdims=True)
    return float(np.linalg.norm(H) / den)


def dirichlet_energy(H, adjacency):
    """0.5 * sum over edges of ||h_i/sqrt(1+d_i) - h_j/sqrt(1+d_j)||^2.

    Both directions of each undirected edge are stored, so each contributes
    twice at weight 0.5, i.e. once per unordered pair. Forms no whole float64
    H/sqrt(1+d): holds one chunk of 4e6 entries (32 MB), the float64 rows of
    the nodes the chunk's sources span (nearly all when one chunk holds every
    entry), and one gather of 2^16 entries.
    """
    H = np.asarray(H)
    norm = np.sqrt(1.0 + adjacency.row_sums())[:, None]
    rows = adjacency.row_indices()
    cols = adjacency.col_indices
    total = 0.0
    # one sum per chunk of 4e6 entries fixes the rounding; the gather block does not
    step = max(1, int(4e6 // max(1, H.shape[1])))
    block = max(1, 2**16 // max(1, H.shape[1]))
    for lo in range(0, rows.shape[0], step):
        r = rows[lo : lo + step]  # sorted, so the sources are nodes r[0]..r[-1]
        d = np.divide(H[r[0] : r[-1] + 1], norm[r[0] : r[-1] + 1], dtype=np.float64)[r - r[0]]
        for s in range(0, d.shape[0], block):
            c = cols[lo + s : lo + min(s + block, d.shape[0])]
            d[s : s + block] -= np.divide(np.take(H, c, axis=0), norm[c], dtype=np.float64)
        d *= d
        total += float(d.sum())
        del d  # before the next chunk's gather
    return 0.5 * total


@dataclass
class CollapseReport:
    distance_to_constant: float
    dirichlet_energy: float
    per_layer: list = field(default_factory=list)


def collapse_report(stack, data, per_layer=False):
    """Diagnostics on the final hidden features (and optionally every layer) of ``eval_forward``."""
    _, hidden = ly.eval_forward(stack, normalized_laplacian(data.adjacency), data.X,
                                return_hidden=True)
    return collapse_from_hidden(hidden, data.adjacency, per_layer)


def collapse_from_hidden(hidden, adjacency, per_layer=False):
    """``collapse_report`` of the features a ``stack_forward(return_hidden=True)`` gave."""
    rep = CollapseReport(
        distance_to_constant=distance_to_constant(hidden[-1]),
        dirichlet_energy=dirichlet_energy(hidden[-1], adjacency),
    )
    if per_layer:
        rep.per_layer = [
            {
                "distance_to_constant": distance_to_constant(h),
                "dirichlet_energy": dirichlet_energy(h, adjacency),
            }
            for h in hidden[1:]
        ]
    return rep


def export_embeddings(stack, data, layer_index, path):
    """Write one layer's features as CSV: node_id, label, dim_0..dim_{d-1}.

    ``layer_index`` 0 is the prepared input; k is the output of ``layers[k - 1]`` (or hop k).
    """
    _, hidden = ly.eval_forward(stack, normalized_laplacian(data.adjacency), data.X,
                                return_hidden=True)
    if not 0 <= layer_index < len(hidden):
        raise ValueError(f"layer index {layer_index} outside [0, {len(hidden) - 1}]")
    H = np.asarray(hidden[layer_index], dtype=np.float64)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["node_id", "label"] + [f"dim_{k}" for k in range(H.shape[1])])
        for i in range(H.shape[0]):
            w.writerow([i, int(data.labels[i])] + [f"{v:.8e}" for v in H[i]])
    return path
