"""Unconstrained CP decomposition by alternating least squares.

This is the compression stage run ahead of the constrained coupled solver:
a rank-``R`` model ``M ~ [[U1..UN]]`` stands in for the raw tensor so that
later gradient terms involve only small matrices.  Factors are
sign-indefinite and absorb all scaling; the returned model carries unit
weights.
"""

from dataclasses import dataclass, field

import numpy as np

from .kruskal import KruskalTensor
from .tensor_ops import factors_khatri_rao, matricize, mttkrp, mttkrp_partial

__all__ = ["AlsOptions", "AlsResult", "cpd_als"]


@dataclass
class AlsOptions:
    """Settings for :func:`cpd_als`."""

    tol: float = 1e-4
    max_iter: int = 200
    seed: int = 0

    def __post_init__(self):
        if not self.tol > 0:  # NaN too
            raise ValueError("tol must be positive")
        if self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")


@dataclass
class AlsResult:
    model: KruskalTensor
    rel_err: float
    rel_err_history: list = field(repr=False)
    n_iter: int = 0
    converged: bool = False


def cpd_als(t, rank, opts=None):
    """Fit an unconstrained rank-``rank`` CP model to ``t``.

    Each mode solve is the exact least-squares minimizer (with a tiny ridge
    guarding rank-deficient iterates), so the residual norm is non-increasing
    across sweeps.  Iteration stops when the relative error changes by less
    than ``opts.tol`` between sweeps or after ``opts.max_iter`` sweeps.

    Each sweep runs on :func:`concpd.tensor_ops.mttkrp`, which forms no
    Khatri-Rao product: one tensor-sized GEMM for the first mode, against
    the last factor, and one for the partial product of the first factor
    that the other modes share, rewritten in one buffer across sweeps.  The
    residual comes from the gram expansion
    ``||T||^2 - 2 sum_r b_r + 1^T G 1``, with ``b`` the last mode's
    contraction at the final factors and ``G`` the Hadamard product of the
    factor grams.  Where that falls below ``1e-3 ||T||^2`` its cancellation
    error would matter, so the residual is formed explicitly from the
    reconstruction instead; the reported history is therefore reliable even
    at near-exact fits.

    Raises ``ValueError`` for a rank below 1 or infeasible (normal equations
    taller than the data allow), non-finite input, or divergence.
    """
    opts = opts if opts is not None else AlsOptions()
    t = np.ascontiguousarray(t, dtype=float)
    if not np.isfinite(t).all():
        raise ValueError("tensor contains non-finite values")
    rank = int(rank)
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    dims = t.shape
    for n in range(t.ndim):
        other = t.size // dims[n]
        if rank > other:
            raise ValueError(
                f"rank {rank} infeasible: mode-{n} system has only {other} rows"
            )

    rng = np.random.default_rng(opts.seed)
    factors = [rng.random((d, rank)) for d in dims]
    grams = [f.T @ f for f in factors]
    norm_sq = float(np.vdot(t, t))
    norm_t = np.sqrt(norm_sq)

    history = []
    rel_err = 0.0 if norm_t == 0.0 else 1.0
    converged = False
    it = 0
    partial = None
    for it in range(1, opts.max_iter + 1):
        for n in range(t.ndim):
            mtt = mttkrp(t, factors, n, partial)
            v = np.ones((rank, rank))
            for m, g in enumerate(grams):
                if m != n:
                    v *= g
            ridge = 1e-12 * np.trace(v) / rank
            if ridge > 0.0:
                u = np.linalg.solve(v + ridge * np.eye(rank), mtt.T).T
            else:
                # the Khatri-Rao columns are all zero, so any factor fits
                u = np.zeros_like(factors[n])
            factors[n] = u
            grams[n] = u.T @ u
            if n == 0:
                partial = mttkrp_partial(t, u, partial)
        if not all(np.isfinite(g).all() for g in grams):
            raise ValueError(f"ALS diverged to non-finite values at sweep {it}")
        # mtt and v are still the last mode's: with its new factor they give
        # the inner product with the data and the model's squared norm
        inner = float(np.vdot(factors[-1], mtt))
        res_sq = norm_sq - 2.0 * inner + float(np.vdot(v, grams[-1]))
        if res_sq < 1e-3 * norm_sq:
            res_sq = _explicit_residual_sq(t, factors)
        new_rel = np.sqrt(max(res_sq, 0.0)) / norm_t if norm_t > 0.0 else 0.0
        history.append(new_rel)
        done = abs(rel_err - new_rel) < opts.tol
        rel_err = new_rel
        if done:
            converged = True
            break

    model = KruskalTensor(factors, np.ones(rank))
    return AlsResult(model, rel_err, history, n_iter=it, converged=converged)


def _explicit_residual_sq(t, factors):
    """``||T - [[U_1..U_N]]||^2`` from the formed reconstruction."""
    d = matricize(t, 0) - factors[0] @ factors_khatri_rao(factors, skip=0).T
    return float(np.vdot(d, d))
