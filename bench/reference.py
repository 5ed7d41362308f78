"""A fixed reference kernel that measures how fast the machine is running right now.

The machine the benchmark runs on is shared: its speed drifts by 20-40% within
seconds and over minutes, and that drift moves every timing by about the same
share. The measuring process samples this kernel before and after each call
and at each stage start inside the staged call, unless the last sample is
less than ``GAP_S`` seconds old; a sample's time inside a call is left out of
the call's time. ``run.py`` scales each call's time by
``nominal_s / median(samples that end within WINDOW_S of the call)``. A timing
then reads in seconds at the reference speed: the drift cancels, while any
change in growgcn's own speed shows in full, because the kernel does not use
growgcn.

The kernel is a forward and backward pass of a plain numpy/scipy GCN on
synthetic data of the workload's shape (nodes, stored entries, feature width,
hidden width, depth), so that a slower core, a busier cache or less memory
bandwidth slows it in about the proportions it slows the program. Its data
comes from a fixed seed, not from the workload seed, so its cost is the same
for every seed.
"""

import statistics
import time

import numpy as np
import scipy.sparse as sp

GAP_S = 0.25  # a sample is skipped when the last one is younger than this
WINDOW_S = 2.0  # a call's speed comes from the samples that end this close to it


class Reference:
    def __init__(self, n, nnz, f, d, layers, reps):
        rng = np.random.default_rng(20260)
        # entries in [0, 2/mean row count): row sums near 1, so values stay in
        # range through every layer
        self.A = sp.random(n, n, density=nnz / (n * n), format="csr", random_state=rng,
                           data_rvs=lambda k: rng.random(k) * 2 * n / nnz)
        self.AT = self.A.T.tocsr()
        self.X = rng.standard_normal((n, f))
        self.W_in = rng.standard_normal((f, d)) / np.sqrt(f)
        self.Ws = [rng.standard_normal((d, d)) / np.sqrt(d) for _ in range(layers)]
        self.reps = reps

    def _pass(self):
        H = self.X @ self.W_in
        tape = []
        for W in self.Ws:
            Z = self.A @ (H @ W)
            tape.append((H, Z))
            H = np.maximum(Z, 0.0)
        G = H - H.mean(axis=0)
        grads = []
        for (H_prev, Z), W in zip(reversed(tape), reversed(self.Ws)):
            G = self.AT @ (G * (Z > 0))
            grads.append(H_prev.T @ G)
            G = G @ W.T
        grads.append(self.X.T @ G)
        return grads

    def sample(self):
        """Seconds for one timed sample of the kernel.

        An untimed pass first brings the kernel's data back into cache, so the
        sample does not depend on what the program evicted before it.
        """
        self._pass()
        t = time.perf_counter()
        for _ in range(self.reps):
            self._pass()
        return time.perf_counter() - t


class Sampler:
    """Samples of a Reference, at least GAP_S apart, each with the time it ended."""

    def __init__(self, ref):
        self.ref = ref
        self.samples = []  # [end time, seconds]
        self._last = -float("inf")

    def due(self):
        """Take a sample if GAP_S has passed since the last one; return the seconds spent."""
        t = time.perf_counter()
        if t - self._last < GAP_S:
            return 0.0
        s = self.ref.sample()
        self._last = time.perf_counter()
        self.samples.append([self._last, s])
        return self._last - t


def speed_factor(nominal_s, samples, t0=-float("inf"), t1=float("inf")):
    """What a timing taken from t0 to t1 is multiplied by to read at reference speed.

    ``samples`` are a Sampler's; those ending within WINDOW_S of [t0, t1] count.
    """
    near = [s for t, s in samples if t0 - WINDOW_S <= t <= t1 + WINDOW_S]
    return nominal_s / statistics.median(near or [s for _, s in samples])
