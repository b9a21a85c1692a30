"""Ground-truth coupled problem generator for benchmarks and recovery tests.

A size factor ``n`` fixes the block dimensions at ``(8n, 9n, 10n)``; the rank
and the per-mode shared-column count follow as ``round(9n/2)`` and
``round(9n/4)`` with round-half-away-from-zero, matching the construction the
benchmark ladder sweeps.  Explicit ``dims``/``rank``/``coupled`` overrides
exist for experiments that need off-ladder shapes.

Ground-truth factors are uniform [0, 1) with the common prefix drawn once and
shared; weights are uniform [0.5, 1.5) so that the core carries real scale
information (a constant core would make the fixed-core solver variant look
artificially good).  Tensors are the exact reconstruction, Gaussian-noised at
``snr_db`` and clipped at zero; ``snr_db=None`` (or ``inf``) keeps them clean.
"""

from dataclasses import dataclass

import numpy as np

from .kruskal import CoupledFactorSet, KruskalTensor, reconstruct
from .metrics import add_noise
from .solver import CoupledProblem

__all__ = ["SynthSpec", "generate", "round_half_away"]


def round_half_away(x):
    """Round to the nearest integer with ties going away from zero."""
    return int(np.sign(x) * np.floor(abs(x) + 0.5))


@dataclass
class SynthSpec:
    """Recipe for one coupled synthetic problem."""

    n_blocks: int = 10
    size_factor: int = 2
    snr_db: float = 20.0
    seed: int = 0
    dims: tuple = None
    rank: int = None
    coupled: tuple = None

    def __post_init__(self):
        if self.n_blocks < 1:
            raise ValueError("n_blocks must be >= 1")
        if self.size_factor < 1:
            raise ValueError("size_factor must be >= 1")
        dims, rank, coupled = self.resolve()
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise ValueError(f"dims must be three positive sizes, got {dims}")
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        if len(coupled) != 3:
            raise ValueError(f"coupled needs one count per mode, got {coupled}")
        if any(not 0 <= c <= rank for c in coupled):
            raise ValueError(
                f"coupled counts {coupled} must lie in [0, rank={rank}]"
            )

    def resolve(self):
        """Final ``(dims, rank, coupled)`` after applying the size rules."""
        dims = self.dims
        if dims is None:
            f = self.size_factor
            dims = (8 * f, 9 * f, 10 * f)
        dims = tuple(int(d) for d in dims)
        rank = self.rank
        if rank is None:
            rank = round_half_away(dims[1] / 2)
        coupled = self.coupled
        if coupled is None:
            coupled = (round_half_away(dims[1] / 4),) * 3
        return dims, int(rank), tuple(int(c) for c in coupled)


def generate(spec):
    """Draw the problem; returns ``(CoupledProblem, truth_factors)``.

    Fully deterministic in ``spec.seed``: the common prefix and each block
    get independent child streams, so block order never shifts the draws.
    Each tensor is written into one ``(n_blocks, I_1, I_2, I_3)`` stack,
    which the problem keeps as its storage (see :class:`CoupledProblem`).
    """
    dims, rank, counts = spec.resolve()
    noiseless = spec.snr_db is None or np.isinf(spec.snr_db)
    children = np.random.SeedSequence(spec.seed).spawn(2 * spec.n_blocks + 1)

    rng_c = np.random.default_rng(children[0])
    common = [rng_c.random((dims[n], counts[n])) for n in range(3)]

    truth_blocks = []
    tensors = np.empty((spec.n_blocks,) + dims)
    for s in range(spec.n_blocks):
        rng_s = np.random.default_rng(children[1 + 2 * s])
        facs = []
        for n in range(3):
            ind = rng_s.random((dims[n], rank - counts[n]))
            facs.append(np.hstack([common[n], ind]) if counts[n] else ind)
        lam = rng_s.uniform(0.5, 1.5, rank)
        truth_blocks.append(KruskalTensor(facs, lam))
        clean = reconstruct(truth_blocks[-1])
        if noiseless:
            tensors[s] = clean
        else:
            tensors[s] = add_noise(clean, snr_db=spec.snr_db, seed=children[2 + 2 * s])

    problem = CoupledProblem(list(tensors), rank, list(counts))
    problem.validate()
    truth = CoupledFactorSet(truth_blocks, list(counts))
    truth.validate()
    return problem, truth
