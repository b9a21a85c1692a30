"""Unconstrained CP decomposition by alternating least squares.

This is the compression stage run ahead of the constrained coupled solver:
a rank-``R`` model ``M ~ [[U1..UN]]`` stands in for the raw tensor so that
later gradient terms involve only small matrices.  Factors are
sign-indefinite and absorb all scaling; the returned model carries unit
weights.

One kernel, :func:`cpd_als_stack`, fits every slice of an
``(S, I_1, ..., I_N)`` tensor stack at once, each block with its own seed,
stop rule and :class:`AlsResult`; :func:`cpd_als` is its call on a stack of
one.  Per sweep and mode it makes one batched MTTKRP and one batched
``np.linalg.solve`` for the whole stack, so a stack of small blocks pays the
Python dispatch of a sweep once instead of once per block.  Every block's
fit is bit-identical to the fit of that block alone, its factors' layout
included.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .kruskal import KruskalTensor, residual_sq
from .tensor_ops import mttkrp, mttkrp_partial
# ALS no longer calls ``matricize`` or ``factors_khatri_rao``; they stay
# bound here because the benchmark's tracer wraps them by these names
from .tensor_ops import factors_khatri_rao, matricize  # noqa: F401

__all__ = ["AlsOptions", "AlsResult", "cpd_als", "cpd_als_stack"]


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
    The factors start from uniform draws of ``np.random.default_rng(opts.seed)``,
    mode by mode.

    Each sweep runs on :func:`concpd.tensor_ops.mttkrp`, which forms no
    Khatri-Rao product: one tensor-sized GEMM for the first mode, against
    the last factor, and one for the partial product of the first factor
    that the other modes share, rewritten in one buffer across sweeps.  The
    residual comes from the gram expansion
    ``||T||^2 - 2 sum_r b_r + 1^T G 1``, with ``b`` the last mode's
    contraction at the final factors and ``G`` the Hadamard product of the
    factor grams.  Where that falls below ``1e-3 ||T||^2`` its cancellation
    error would matter, so :func:`concpd.kruskal.residual_sq`, the coupled
    solver's explicit residual, forms it instead; the reported history is
    therefore reliable even at near-exact fits.

    This is :func:`cpd_als_stack` on the stack ``t[None]``.  Raises
    ``ValueError`` for a rank below 1 or infeasible (normal equations
    taller than the data allow), non-finite input, or divergence.
    """
    opts = opts if opts is not None else AlsOptions()
    t = np.ascontiguousarray(t, dtype=float)
    (out,) = cpd_als_stack(t[None], rank, opts, [opts.seed])
    if isinstance(out, Exception):
        raise out
    return out


def cpd_als_stack(tensors, rank, opts, seeds):
    """:func:`cpd_als` of every slice ``tensors[j]`` of a stack, with seed
    ``seeds[j]`` and the tolerance and sweep cap of ``opts``.

    All blocks sweep together: per mode one batched :func:`mttkrp` and one
    batched ``np.linalg.solve`` of the ``(S, R, R)`` normal equations.  A
    block leaves the stack at the end of the sweep in which its stop rule
    fires or its factors stop being finite, so no later sweep is spent on it.
    Returns per block its :class:`AlsResult`, bit-identical to
    ``cpd_als(tensors[j], rank, replace(opts, seed=seeds[j]))``, or the
    ``ValueError`` that call raises.  Every sweep streams all the stack's
    tensors through two GEMMs, so a caller keeps the stack small enough to
    stay in cache between them.
    """
    tensors = np.ascontiguousarray(tensors, dtype=float)
    size, dims = tensors.shape[0], tensors.shape[1:]
    finite = np.isfinite(tensors).all(axis=tuple(range(1, tensors.ndim)))
    out = [None if ok else ValueError("tensor contains non-finite values") for ok in finite]
    rank = int(rank)
    failure = ValueError(f"rank must be >= 1, got {rank}") if rank < 1 else None
    for n in range(len(dims)):
        other = math.prod(dims[:n] + dims[n + 1:])
        if failure is None and rank > other:
            failure = ValueError(f"rank {rank} infeasible: mode-{n} system has only {other} rows")
    # the blocks still sweeping, by their index in ``tensors``
    rows = np.flatnonzero(finite).tolist()
    if failure is not None or not rows:
        return [failure if o is None else o for o in out]

    t = tensors if len(rows) == size else tensors[rows]
    draws = [[rng.random((d, rank)) for d in dims]
             for rng in map(np.random.default_rng, (seeds[j] for j in rows))]
    factors = [np.stack(f) for f in zip(*draws)]
    grams = [f.swapaxes(-1, -2) @ f for f in factors]
    # per stack row, as floats: ||T||^2, ||T|| and the relative error, which
    # is 0 for a zero tensor
    norm_sq = [float(np.vdot(x, x)) for x in t]
    norm = [math.sqrt(x) for x in norm_sq]
    rel = [0.0 if x == 0.0 else 1.0 for x in norm]
    history = [[] for _ in range(size)]

    def model(i):
        return KruskalTensor([f[i] for f in factors], np.ones(rank))

    def finish(sel, it, converged):
        for i in sel:
            j = rows[i]
            out[j] = AlsResult(model(i), rel[i], history[j], n_iter=it, converged=converged)

    eye = np.eye(rank)
    others = [[m for m in range(len(dims)) if m != n] for n in range(len(dims))]
    partial = None
    it = 0
    for it in range(1, opts.max_iter + 1):
        for n, other in enumerate(others):
            mtt = mttkrp(t, factors, n, partial)
            v = grams[other[0]]
            for m in other[1:]:
                v = v * grams[m]
            ridge = 1e-12 * v.trace(axis1=-2, axis2=-1) / rank
            # a factor is the transposed solve.  A ridge that is not positive
            # means all-zero Khatri-Rao columns, so any factor fits, or a
            # diverging block's NaN system: that slot solves I x = 0 instead,
            # to the factor 0, and keeps its NaNs out of LAPACK
            pos = (ridge > 0.0)[:, None, None]
            a = np.where(pos, v + ridge[:, None, None] * eye, eye)
            sol = np.linalg.solve(a, np.where(pos, mtt.swapaxes(-1, -2), 0.0))
            factors[n] = sol.swapaxes(-1, -2)
            grams[n] = sol @ factors[n]
            if n == 0:
                partial = mttkrp_partial(t, factors[0], partial)
        gone = set()
        if not all(np.isfinite(g).all() for g in grams):
            ok = np.logical_and.reduce([np.isfinite(g).all(axis=(-2, -1)) for g in grams])
            for i in np.flatnonzero(~ok):
                out[rows[i]] = ValueError(f"ALS diverged to non-finite values at sweep {it}")
                gone.add(i)
        done = []
        for i, j in enumerate(rows):
            if i in gone:
                continue
            # mtt and v are still the last mode's: with its new factor they
            # give the inner product with the data and the model's squared norm
            res = (norm_sq[i] - 2.0 * float(np.vdot(factors[-1][i], mtt[i]))
                   + float(np.vdot(v[i], grams[-1][i])))
            if res < 1e-3 * norm_sq[i]:
                res = residual_sq(t[i], model(i))
            new_rel = math.sqrt(max(res, 0.0)) / norm[i] if norm[i] > 0.0 else 0.0
            history[j].append(new_rel)
            if abs(rel[i] - new_rel) < opts.tol:
                done.append(i)
            rel[i] = new_rel
        finish(done, it, True)
        gone.update(done)
        if gone:
            keep = [i for i in range(len(rows)) if i not in gone]
            if not keep:
                return out
            t, factors, grams = t[keep], [f[keep] for f in factors], [g[keep] for g in grams]
            rows, norm_sq, norm, rel = ([x[i] for i in keep] for x in (rows, norm_sq, norm, rel))
            partial = None
    finish(range(len(rows)), it, False)
    return out
