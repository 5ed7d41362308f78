import numpy as np
import pytest

from growgcn import (GraphDataset, LoraAdapter, Splits, build_adjacency, generate_sbm,
                     make_adapter)


@pytest.fixture(scope="session")
def path3():
    """3-node path graph 0-1-2."""
    return build_adjacency([(0, 1), (1, 2)], 3)


@pytest.fixture(scope="session")
def small_sbm():
    """Separable 3-class block model, shared across tests that only read it."""
    return generate_sbm(3, 50, 0.15, 0.01, f=12, signal=2.0, seed=11)


@pytest.fixture()
def tiny_dataset():
    """Hand-built 8-node dataset with full split coverage; cheap to train on."""
    rng = np.random.default_rng(0)
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4), (0, 4)]
    labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    X = np.abs(rng.standard_normal((8, 5))) + labels[:, None]
    return GraphDataset(
        n=8, f=5, C=2, X=X, labels=labels,
        adjacency=build_adjacency(edges, 8),
        splits=Splits(train=[0, 1, 4, 5], val=[2, 6], test=[3, 7]),
    ).validate()


def random_graph(rng, n):
    """Erdos-Renyi-ish adjacency plus a spanning path so it stays connected."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
    pairs += [(i, i + 1) for i in range(n - 1)]
    return build_adjacency(pairs, n)


def scaled_adapter(d_in, d_out, rank, alpha, rng, dtype=np.float32):
    """``make_adapter``'s fresh factors, from the same draws, under another alpha."""
    fresh = make_adapter(d_in, d_out, rank, rng, dtype)
    return LoraAdapter(fresh.A, fresh.B, rank, alpha)


BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.MT19937,
                  np.random.SFC64]


def same_state(a, b):
    """Equal bit-generator states, field by field (some fields are arrays)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)
