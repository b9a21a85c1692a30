"""Machine-speed probe: fixed numpy work, timed between the solves of a run.

The shared 2-core VMs this benchmark runs on switch, for tens of seconds to
minutes at a time, between a fast speed and one up to 2x slower, so runs of
the same code that land in different phases differ by far more than any
bound.  The probe is ALS-shaped work in plain numpy (unfold, Khatri-Rao
product, multiply, solve with the Hadamard product of the grams) on as many
random blocks of the workload's shape and rank as the workload has, so it
touches a working set of the same size.  It uses no ``concpd`` code, so no
change to the package can speed it up or slow it down.  A run's solve time
times ``reference_s`` over the run's median probe time is what the solves
would have taken at the speed where the probe takes ``reference_s``.
"""

import time

import numpy as np


class SpeedProbe:
    def __init__(self, dims, rank, n_blocks, sweeps, reference_s):
        rng = np.random.default_rng(0)
        self.blocks = [(rng.random(dims), [rng.random((d, rank)) for d in dims])
                       for _ in range(n_blocks)]
        self.eye = np.eye(rank)
        self.sweeps = sweeps
        self.reference_s = reference_s
        self()  # the first call pays one-off allocation costs

    def __call__(self):
        """Seconds the fixed work takes now."""
        tic = time.perf_counter()
        for _ in range(self.sweeps):
            for t, factors in self.blocks:
                for n in range(t.ndim):
                    a, b = [f for m, f in enumerate(factors) if m != n]
                    kr = (a[:, None, :] * b[None, :, :]).reshape(-1, a.shape[1])
                    unfolded = np.moveaxis(t, n, 0).reshape(t.shape[n], -1)
                    gram = (a.T @ a) * (b.T @ b) + self.eye
                    np.maximum(np.linalg.solve(gram, (unfolded @ kr).T), 0.0)
        return time.perf_counter() - tic

    def rescale(self, wall_s, probe_s):
        """``wall_s`` at the reference speed, given the probe's time then."""
        return wall_s * self.reference_s / probe_s
