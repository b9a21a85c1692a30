"""Coupled nonnegative CP decomposition by alternating proximal gradient.

``S`` nonnegative tensors are decomposed jointly; per mode ``n`` the first
``L_n`` factor columns are shared by all blocks.  Each iteration takes one
projected gradient step per variable (core weight vectors first, then factor
matrices mode by mode) at a Nesterov-extrapolated point, with the step size
set by the spectral norm of the corresponding gram surrogate.  If the
objective fails to decrease the iteration is redone from the
non-extrapolated points, which restores the majorization-minimization
descent guarantee.

Blocks that share their dims and rank form a group, held as stacks: per
mode one ``(S, I_n, R)`` factor array, the weights as ``(S, R)`` and the
grams and cross-grams as ``(S, R, R)`` stacks.  Each update is then a few
batched products and one stacked :func:`spectral_norm` call per group.  The
shared columns are one slice, stepped along the gradient summed over the
block axis of every group.  Blocks of other dims or ranks form further
groups, a lone block a group of one; there is no per-block iteration.

The two modes differ only in the data the iteration fits, and so in where
its linear terms come from.  Both score an iterate by one gram expansion,
``||M||^2 - 2 lam^T b + lam^T G lam``, of the fitted data ``M``, with ``G``
the cached gram product and ``b = (U_kr)^T vec(M)`` the core linear term,
staged per group for the next core update.

* ``full`` fits the raw tensors.  Gradients use
  :func:`concpd.tensor_ops.mttkrp` on their C-order views, with no
  Khatri-Rao product: per block and sweep, one GEMM against the last
  factor for the first mode, and one GEMM for the partial product of the
  first factor, rewritten in one buffer per block, that the other modes
  contract with small factor matrices.  ``b`` is the last mode's
  contraction, exact at the new iterate.  The objective is formed from the
  explicit residual instead where that is small (below ``1e-3 ||M||^2``)
  and wherever the expanded value is not strictly below the last recorded
  objective, so every restart decision and every value recorded after a
  restart is computed explicitly.
* ``lra`` fits compressed models ``M~``, each tensor's unconstrained ALS
  fit (:func:`concpd.cpd_als.cpd_als`).  Linear terms reduce to products
  of small cross-gram matrices, so per-iteration cost scales with the sum
  of dimensions instead of their product.  The expansion's rounding error
  is bounded by the same expansion over absolute values (``|U~|^T U`` per
  mode update, ``|U~|^T |U~|`` once).  The expansion plus that bound, an
  upper bound of the true value, is kept when it lies strictly below the
  last recorded objective.  Otherwise, as at the start and after a
  restart, the expansion is used as is, and a stable QR route wherever the
  compressed residual is below ``1e-3 ||M~||^2``.  A separate report reads
  the raw tensors once per recorded iterate, by the same expansion, for the
  trace's objective and relative error; evaluations that a restart rejects
  and escape sweeps never touch them.  The stopping rule fires when that
  relative error or the compressed models' (``sqrt(res~) / ||M~||``
  averaged over blocks) stalls.

Escape from a dead shared slot.  The iteration can stall at a point where a
shared slot's core weight is exactly 0 in some block with a strictly
positive gradient, while the true shared component sits in individual slots
of two or more blocks; no monotone projected step leaves such a point.  When
the stopping rule fires with core updates on, the solver looks for such a
slot and for individual slots whose columns agree in every coupled mode
(product of per-mode cosines at least ``ESCAPE_AGREEMENT``).  It then writes
their mean direction into the shared slot, bit-identical in every block,
with the matched scale carried into the weights; it moves the shared slot's
old columns and weight into each matched block's vacated slot, and re-seeds
a vacated slot whose old weight was 0 with a nonnegative rank-1 fit of the
block's residual.  After at most ``ESCAPE_SWEEPS`` plain sweeps the escape
is kept only if the objective is strictly below its last recorded value;
otherwise the pre-escape iterate is restored and the run stops as before.
A kept escape counts as one iteration and restarts momentum and step-size
memory.  The escape draws no random numbers.
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .cpd_als import AlsOptions, cpd_als
from .kruskal import CoupledFactorSet, KruskalTensor, reconstruct
from .tensor_ops import (
    factors_khatri_rao,
    # unused here, but kept bound: the benchmark's tracer wraps it by name
    hadamard_gram,  # noqa: F401
    matricize,
    mttkrp,
    mttkrp_partial,
    spectral_norm,
)

__all__ = [
    "CoupledProblem",
    "SolverOptions",
    "SolveResult",
    "TraceRow",
    "solve",
    "objective",
    "core_gradient",
    "factor_gradient",
    "core_linear_term",
    "core_linear_term_lra",
    "factor_linear_term",
    "factor_linear_term_lra",
    "lipschitz_factor",
    "extrapolation_weight",
    "t_next",
    "init_factors",
]


# ---------------------------------------------------------------------------
# problem / options / result containers
# ---------------------------------------------------------------------------


@dataclass
class CoupledProblem:
    """``S`` nonnegative tensors to decompose jointly.

    Parameters
    ----------
    tensors : list of ndarray
        Nonnegative arrays of a shared order; dimensions may differ between
        blocks only in modes with ``coupled_counts[n] == 0``.
    ranks : int or list of int
        Target rank per block (an int is broadcast to all blocks).
    coupled_counts : list of int
        Per mode, the number of leading factor columns shared by all blocks.
    mode : "full" or "lra"
    update_core : bool
        ``False`` selects the fixed-core variant: the weight vectors stay at
        their all-ones initialization and only factors are optimized.
    als_options : AlsOptions, optional
        Compression settings for ``mode="lra"``.  Each block is compressed
        at its own target rank, with ALS seed ``als_options.seed + s``.
    """

    tensors: list
    ranks: list
    coupled_counts: list
    mode: str = "full"
    update_core: bool = True
    als_options: AlsOptions = None

    def __post_init__(self):
        # C order makes the solver's unfoldings copy-free views
        self.tensors = [np.ascontiguousarray(t, dtype=float) for t in self.tensors]
        if isinstance(self.ranks, (int, np.integer)):
            self.ranks = [int(self.ranks)] * len(self.tensors)
        self.ranks = [int(r) for r in self.ranks]
        self.coupled_counts = [int(c) for c in self.coupled_counts]

    @property
    def n_blocks(self):
        return len(self.tensors)

    @property
    def order(self):
        return self.tensors[0].ndim

    def validate(self):
        if not self.tensors:
            raise ValueError("no tensors")
        if self.mode not in ("full", "lra"):
            raise ValueError(f"unknown mode {self.mode!r}")
        order = self.tensors[0].ndim
        for s, t in enumerate(self.tensors):
            if t.ndim != order:
                raise ValueError(f"block {s} has order {t.ndim}, expected {order}")
            if not np.isfinite(t).all():
                raise ValueError(f"block {s} contains non-finite values")
            if (t < 0).any():
                raise ValueError(f"block {s} contains negative entries")
        if len(self.ranks) != len(self.tensors):
            raise ValueError("one rank per block required")
        if any(r < 1 for r in self.ranks):
            raise ValueError("ranks must be >= 1")
        if len(self.coupled_counts) != order:
            raise ValueError("one coupled count per mode required")
        min_rank = min(self.ranks)
        for n, c in enumerate(self.coupled_counts):
            if not 0 <= c <= min_rank:
                raise ValueError(
                    f"coupled count {c} in mode {n} exceeds minimum rank {min_rank}"
                )
            if c > 0:
                sizes = {t.shape[n] for t in self.tensors}
                if len(sizes) != 1:
                    raise ValueError(
                        f"mode {n} is coupled but block sizes differ: {sorted(sizes)}"
                    )


@dataclass
class SolverOptions:
    max_iter: int = 1000
    tol: float = 1e-8
    delta_w: float = 0.9999
    seed: int = 0
    trace_every: int = 1

    def __post_init__(self):
        if self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if not 0.0 < self.delta_w < 1.0:
            raise ValueError("delta_w must lie in (0, 1)")
        if self.trace_every < 1:
            raise ValueError("trace_every must be >= 1")


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    obj_fun: float
    rel_err: float
    elapsed_s: float


@dataclass
class SolveResult:
    """Outcome of :func:`solve`.

    ``trace`` rows and ``rel_err_history`` report the objective and
    relative error against the original tensors.  ``objective_history``
    records, for every accepted iteration (entry 0 is the initialization),
    the objective of the data the iteration fits — the original tensors in
    full mode, where it equals the trace objective, the compressed models
    in lra mode — and is the quantity the restart rule keeps non-increasing.

    ``n_restarts`` counts iterations redone without extrapolation;
    ``n_escapes`` counts kept escapes from a dead shared slot (see the
    module docstring).  A kept escape is one iteration, with one entry in
    each history that lies strictly below the entry before it; a rejected
    escape leaves no entry, so ``len(objective_history) == n_iter + 1``
    always holds.
    """

    factors: CoupledFactorSet
    trace: list
    termination_reason: str
    objective_history: list = field(repr=False, default_factory=list)
    rel_err_history: list = field(repr=False, default_factory=list)
    n_iter: int = 0
    n_restarts: int = 0
    n_escapes: int = 0
    solve_seconds: float = 0.0
    compress_seconds: float = 0.0
    compression: list = None


# ---------------------------------------------------------------------------
# gradient / step-size / extrapolation building blocks
# ---------------------------------------------------------------------------


def objective(tensors, blocks):
    """``1/2 sum_s ||M_s - [[lam_s; U_s]]||_F^2`` via explicit residuals."""
    return sum(0.5 * _residual_sq(t, k) for t, k in zip(tensors, blocks))


def _residual_sq(tensor, block):
    """``||M - [[lam; U]]||_F^2`` from the formed residual."""
    x0 = (block.factors[0] * block.weights) @ factors_khatri_rao(block.factors, skip=0).T
    d = matricize(tensor, 0) - x0
    return float(np.einsum("ij,ij->", d, d))


def core_gradient(gram_all, lam_hat, linear):
    """Gradient of the block objective in the core weights.

    ``gram_all`` is the all-modes Hadamard product of factor grams and
    ``linear`` the Khatri-Rao contraction of the data (see
    :func:`core_linear_term`), both at the current factors.  Takes one
    block, or ``(S, ...)`` stacks of blocks.
    """
    return (gram_all @ lam_hat[..., None])[..., 0] - linear


def core_linear_term(tensor, factors):
    """``(U_kr)^T vec(M)``: the last mode's MTTKRP against its factor.

    Costs one tensor-sized GEMM (the partial product of the first factor),
    then per rank column matrix-vector products over the middle modes; no
    Khatri-Rao product is formed.
    """
    last = len(factors) - 1
    return np.einsum("ir,ir->r", factors[last], mttkrp(tensor, factors, last))


def core_linear_term_lra(mu, cross):
    """Same contraction when ``M`` is a compressed model with weights ``mu``.

    ``cross[n]`` is the mode-``n`` cross-gram ``U~_n^T U_n``; the Khatri-Rao
    contraction of the compressed model is ``mu`` against their Hadamard
    product.  Takes one block, or ``(S, ...)`` stacks of blocks.
    """
    return (mu[..., None, :] @ np.multiply.reduce(cross))[..., 0, :]


def factor_gradient(u_hat, gram_skip, mtt, lam):
    """Gradient of the block objective in one mode's factor.

    ``gram_skip`` is the Hadamard gram over the other modes, ``mtt`` the
    matricized-tensor-times-Khatri-Rao product for this mode (see
    :func:`factor_linear_term`), ``u_hat`` the (possibly extrapolated)
    point.  Takes one block, or ``(S, ...)`` stacks of blocks.
    """
    outer = lam[..., :, None] * lam[..., None, :]
    return u_hat @ (gram_skip * outer) - mtt * lam[..., None, :]


def factor_linear_term(tensor, factors, n):
    """``M_(n) U_kr^(-n)`` — the product that dominates full-mode cost, by
    the kernel the solver runs (:func:`concpd.tensor_ops.mttkrp`)."""
    return mttkrp(tensor, factors, n)


def factor_linear_term_lra(weighted, cross_others):
    """Same product against a compressed model, from small matrices only.

    ``weighted`` is ``U~_n diag(mu)`` and ``cross_others`` the cross-grams
    ``U~_m^T U_m`` of the other modes ``m``.  Takes one block, or ``(S, ...)``
    stacks of blocks.
    """
    return weighted @ np.multiply.reduce(cross_others)


def lipschitz_factor(gram_skip, lam):
    """Step-size bound for a factor update: the spectral norm of
    ``gram_skip * lam lam^T``.  Takes one block, or ``(S, ...)`` stacks."""
    return spectral_norm(gram_skip * (lam[..., :, None] * lam[..., None, :]))


def t_next(t):
    """Momentum sequence ``t_k = (1 + sqrt(1 + 4 t_{k-1}^2)) / 2``."""
    return 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))


def extrapolation_weight(w_hat, lip_prev, lip_curr, delta_w):
    """``min(w_hat, delta_w * sqrt(L_prev / L_curr))``; 0 on degenerate
    blocks.  Element-wise over arrays of step bounds."""
    live = (lip_prev > 0.0) & (lip_curr > 0.0)
    ratio = np.divide(lip_prev, lip_curr, out=np.zeros(np.shape(live)), where=live)
    return np.minimum(w_hat, delta_w * np.sqrt(ratio)) * live


def init_factors(problem, seed):
    """Uniform [0, 1) initialization with the common prefix drawn once.

    Weight vectors are uniform [0, 1) as well, except in the fixed-core
    variant where they are all ones.  The draw order (common prefixes by
    mode, then per block: individual columns by mode, then weights) is part
    of the determinism contract.
    """
    rng = np.random.default_rng(seed)
    counts = problem.coupled_counts
    dims0 = problem.tensors[0].shape
    common = [rng.random((dims0[n], counts[n])) for n in range(problem.order)]
    blocks = []
    for s in range(problem.n_blocks):
        rank = problem.ranks[s]
        facs = []
        for n in range(problem.order):
            ind = rng.random((problem.tensors[s].shape[n], rank - counts[n]))
            # uncoupled modes may differ in size between blocks, so the
            # zero-width common slab cannot be stacked against them
            facs.append(np.hstack([common[n], ind]) if counts[n] else ind)
        if problem.update_core:
            lam = rng.random(rank)
        else:
            lam = np.ones(rank)
        blocks.append(KruskalTensor(facs, lam))
    return CoupledFactorSet(blocks, list(counts))


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

# an escape matches individual slots whose per-mode cosines multiply to at
# least this, and is kept only if this many plain sweeps beat the objective
ESCAPE_AGREEMENT = 0.95
ESCAPE_SWEEPS = 20


def _quad(x, mats, y):
    """``x_s^T mats_s y_s`` for every matrix of a stack."""
    return np.einsum("sr,srq,sq->s", x, mats, y)


class _Group:
    """Blocks ``idx`` of one shape and rank: current and previous factors
    ``u[n]``, ``u_prev[n]`` ``(S, I_n, R)``, weights ``(S, R)``, per mode the
    grams ``(N, S, R, R)``, and ``data_sq``, the fitted data's ``||M||^2``.
    In lra mode ``cross`` stacks ``U~_n^T U_n`` over ``|U~_n|^T U_n``,
    ``(N, S, 2 R~, R)``: one product per mode update refreshes the linear
    terms' cross-grams and those of the bound on the expansion's rounding error.
    """

    def __init__(self, idx, blocks, tilde, norm_sq):
        self.idx = idx
        order = blocks[idx[0]].order
        self.u = [np.stack([blocks[s].factors[n] for s in idx]) for n in range(order)]
        self.lam = np.stack([blocks[s].weights for s in idx])
        self.u_prev = [u.copy() for u in self.u]
        self.lam_prev = self.lam.copy()
        size, rank = self.lam.shape
        self.gram = np.empty((order, size, rank, rank))
        self.lip_core, self.lip_fac = None, [None] * order
        self.data_sq = norm_sq[idx]
        self.tilde_t = None
        if tilde is not None:
            facs = [np.stack([tilde[s].factors[n] for s in idx]) for n in range(order)]
            self.mu = np.stack([tilde[s].weights for s in idx])
            self.rt = self.mu.shape[1]
            self.tilde_t = [np.concatenate([f, np.abs(f)], axis=2).transpose(0, 2, 1).copy()
                            for f in facs]
            self.tilde_mtt = [f * self.mu[:, None, :] for f in facs]
            self.cross = np.empty((order, size, 2 * self.rt, rank))
            grams = [np.prod([f.transpose(0, 2, 1) @ f for f in fs], axis=0)
                     for fs in (facs, [np.abs(f) for f in facs])]
            self.data_sq = _quad(self.mu, grams[0], self.mu)
            self.tilde_abs_sq = _quad(np.abs(self.mu), grams[1], np.abs(self.mu))
            # no term of the expansion passes through more roundings than
            # this (gram sums, Hadamard and quadratic-form products and sums,
            # two additions); eps, twice the unit roundoff, covers the rest
            roundings = sum(f.shape[1] for f in facs) + order + (rank + self.rt) ** 2 + 4
            self.err_scale = roundings * np.finfo(float).eps
        for n in range(order):
            self.refresh(n)

    def refresh(self, n):
        u = self.u[n]
        np.matmul(u.transpose(0, 2, 1), u, out=self.gram[n])
        if self.tilde_t is not None:
            np.matmul(self.tilde_t[n], u, out=self.cross[n])

    def arrays(self):
        """The current iterate's stacks, then the previous iterate's."""
        return self.u + [self.lam], self.u_prev + [self.lam_prev]


class _Apg:
    """Iteration state: the groups' stacks, and per block ``curr[s]``, a
    model whose factors and weights are views of its group's stacks.  Only
    the evaluation right after a sweep reads the tensor products it forms."""

    def __init__(self, problem, opts, tilde):
        self.p = problem
        self.o = opts
        self.tilde = tilde
        self.S = problem.n_blocks
        self.N = problem.order
        self.counts = problem.coupled_counts
        self._others = [[m for m in range(self.N) if m != n] for n in range(self.N)]

        self.norm_sq = np.array([float(np.vdot(t, t)) for t in problem.tensors])
        start = init_factors(problem, opts.seed).blocks
        members = {}
        for s, blk in enumerate(start):
            members.setdefault((blk.dims, blk.rank), []).append(s)
        # block 0 is row 0 of the first group
        self.groups = [_Group(idx, start, tilde, self.norm_sq) for idx in members.values()]
        self.curr = [None] * self.S
        for g in self.groups:
            for j, s in enumerate(g.idx):
                self.curr[s] = KruskalTensor([u[j] for u in g.u], g.lam[j])

        # per group, the core linear terms of the last accepted iterate
        self.b = None
        # full mode: per block, the buffer of the partial product that every
        # sweep rewrites in place at mode 1
        self._workspace = [None] * self.S
        self._iter_tag = 0

        self.t_k, self.n_restarts, self.n_escapes = 1.0, 0, 0
        # escapes swap slots between shared and individual columns, which
        # needs a core to carry scale and a slot shared by two or more blocks
        self.can_escape = problem.update_core and self.S > 1 and max(self.counts) > 0

    # -- block updates -----------------------------------------------------

    def _update_cores(self, w_hat):
        for g, linear in zip(self.groups, self.b):
            gram_all = g.gram.prod(axis=0)
            ld = spectral_norm(gram_all)
            ld_prev = ld if g.lip_core is None else g.lip_core
            g.lip_core = ld
            w = extrapolation_weight(w_hat, ld_prev, ld, self.o.delta_w)
            lam_hat = g.lam + w[:, None] * (g.lam - g.lam_prev)
            grad = core_gradient(gram_all, lam_hat, linear)
            # a zero bound means zero factor columns and a zero gradient
            live = (ld > 0.0)[:, None]
            step = np.maximum(0.0, lam_hat - grad / np.where(live, ld[:, None], 1.0))
            g.lam_prev[...] = g.lam
            g.lam[...] = np.where(live, step, g.lam)

    def _update_mode(self, n, w_hat):
        """Step mode ``n``; return each group's stacked MTTKRPs."""
        ln = self.counts[n]
        parts = []
        for g in self.groups:
            gram_skip = g.gram[self._others[n]].prod(axis=0)
            lu = lipschitz_factor(gram_skip, g.lam)
            lu_prev = lu if g.lip_fac[n] is None else g.lip_fac[n]
            g.lip_fac[n] = lu
            if self.tilde is None:
                mtt = np.empty_like(g.u[n])
                for j, s in enumerate(g.idx):
                    tensor, facs = self.p.tensors[s], self.curr[s].factors
                    if n == 1:  # the first factor is final for the rest of the sweep
                        self._workspace[s] = mttkrp_partial(tensor, facs[0], self._workspace[s])
                    mtt[j] = mttkrp(tensor, facs, n, self._workspace[s])
            else:
                mtt = factor_linear_term_lra(g.tilde_mtt[n],
                                             g.cross[self._others[n], :, :g.rt])
            parts.append((gram_skip, lu, lu_prev, mtt))

        if ln > 0:
            sum_lu = sum(float(lu.sum()) for _, lu, _, _ in parts)
            sum_prev = sum(float(lu_prev.sum()) for _, _, lu_prev, _ in parts)
            w_common = extrapolation_weight(w_hat, sum_prev, sum_lu, self.o.delta_w)
            first = self.groups[0]
            c_curr = first.u[n][0, :, :ln]
            c_hat = c_curr + w_common * (c_curr - first.u_prev[n][0, :, :ln])
            grad_common = np.zeros_like(c_hat)

        new = []
        for g, (gram_skip, lu, lu_prev, mtt) in zip(self.groups, parts):
            u = g.u[n]
            w = extrapolation_weight(w_hat, lu_prev, lu, self.o.delta_w)
            u_hat = u + w[:, None, None] * (u - g.u_prev[n])
            if ln > 0:
                u_hat[:, :, :ln] = c_hat
            grad = factor_gradient(u_hat, gram_skip, mtt, g.lam)
            if ln > 0:
                grad_common += grad[:, :, :ln].sum(axis=0)
            # a zero bound implies a zero gradient: such a block keeps its
            # factor; the common columns are overwritten below
            live = (lu > 0.0)[:, None, None]
            step = np.maximum(0.0, u_hat - grad / np.where(live, lu[:, None, None], 1.0))
            new.append(np.where(live, step, u))

        if ln > 0:
            if sum_lu > 0.0:
                c_new = np.maximum(0.0, c_hat - grad_common / sum_lu)
            else:
                c_new = c_curr.copy()
        for g, u_new in zip(self.groups, new):
            if ln > 0:
                u_new[:, :, :ln] = c_new
            g.u_prev[n][...] = g.u[n]
            g.u[n][...] = u_new
            g.refresh(n)
        return [mtt for *_, mtt in parts]

    def _sweep(self, w_hat):
        """Cores, then each mode; returns the last mode's MTTKRP stacks."""
        if self.p.update_core:
            self._update_cores(w_hat)
        for n in range(self.N):
            mtts = self._update_mode(n, w_hat)
        return mtts

    # -- objective / relative error ----------------------------------------

    def _small_residual_sq(self, s):
        """Stable ``||M~ - X||^2`` via per-mode QR of the stacked factors.

        The residual of two Kruskal models lives in the span of their
        concatenated factors; rotating into that basis gives a small dense
        core whose norm is free of the cancellation that ruins the gram
        expansion once the residual is tiny.
        """
        tilde = self.tilde[s]
        weights = np.concatenate([tilde.weights, -self.curr[s].weights])
        coeffs = []
        for n in range(self.N):
            stacked = np.hstack([tilde.factors[n], self.curr[s].factors[n]])
            coeffs.append(np.linalg.qr(stacked, mode="r"))
        core = reconstruct(KruskalTensor(coeffs, weights))
        return float(np.vdot(core, core))

    def _raw_linear(self, g):
        """Stacked :func:`core_linear_term` of group ``g``'s raw tensors."""
        return np.stack([core_linear_term(self.p.tensors[s], self.curr[s].factors)
                         for s in g.idx])

    def _rel(self, res, norm_sq):
        """Mean over blocks of ``sqrt(res_s / norm_sq_s)``, a zero-norm block
        counting 0, once every block's residual is finite."""
        if not np.isfinite(res).all():
            raise FloatingPointError(
                f"block {np.flatnonzero(~np.isfinite(res))[0]} produced a "
                f"non-finite objective at iteration {self._iter_tag}"
            )
        norm = np.sqrt(norm_sq)
        rel = np.sqrt(np.maximum(res, 0.0)) / np.where(norm > 0.0, norm, np.inf)
        return float(rel.sum()) / len(res)

    def _evaluate(self, bound=-np.inf, mtt=None):
        """Objective and relative error of the data the iteration fits.

        Returns ``(obj, rel, staged)``: the objective, the mean
        ``sqrt(res_s) / ||M_s||`` behind it (a zero-norm block counts 0), and
        per group this iterate's core linear terms ``b``.  In full mode they
        come from ``mtt``, the MTTKRP stacks of the sweep that made this
        iterate, or else from :func:`core_linear_term`; in lra mode from
        :func:`core_linear_term_lra`.  The objective's error stays far below
        the true per-iteration decrease.  In full mode the gram expansion is
        kept only if no block's residual is small and the total lies
        strictly below ``bound``; otherwise every block's residual is formed
        explicitly, as it always is at the default bound.  In lra mode the
        expansion plus its rounding-error bound is returned if it lies
        strictly below ``bound``; otherwise the QR route takes over wherever
        the compressed residual is small.
        """
        res, err, data_sq = np.empty(self.S), np.zeros(self.S), np.empty(self.S)
        staged = []
        for i, g in enumerate(self.groups):
            model_sq = _quad(g.lam, g.gram.prod(axis=0), g.lam)
            if self.tilde is not None:
                b = core_linear_term_lra(g.mu, g.cross[:, :, :g.rt])
                cross_abs = np.multiply.reduce(g.cross[:, :, g.rt:])
                bound_abs = g.tilde_abs_sq + 2.0 * _quad(np.abs(g.mu), cross_abs, g.lam)
                err[g.idx] = g.err_scale * (bound_abs + model_sq)
            elif mtt is not None:
                b = np.einsum("sir,sir->sr", g.u[-1], mtt[i])
            else:  # at the start and after a swap
                b = self._raw_linear(g)
            staged.append(b)
            res[g.idx] = g.data_sq - 2.0 * np.einsum("sr,sr->s", g.lam, b) + model_sq
            data_sq[g.idx] = g.data_sq
        obj = 0.5 * float((res + err).sum())
        if self.tilde is None:
            # the expansion cancels badly once a residual is small, and the
            # restart rule decides on explicit values only
            if (res < 1e-3 * data_sq).any() or not obj < bound:
                res = np.array(list(map(_residual_sq, self.p.tensors, self.curr)))
                obj = 0.5 * float(res.sum())
        elif not obj < bound:
            for s in np.flatnonzero(res < 1e-3 * data_sq):
                res[s] = self._small_residual_sq(s)
            obj = 0.5 * float(np.maximum(res, 0.0).sum())
        return obj, self._rel(res, data_sq), staged

    def _report(self, obj, rel):
        """Objective and relative error against the original tensors, given
        ``_evaluate``'s values at the current iterate: those values in full
        mode, the raw tensors' gram expansion in lra mode."""
        if self.tilde is None:
            return obj, rel
        res = np.empty(self.S)
        for g in self.groups:
            model_sq = _quad(g.lam, g.gram.prod(axis=0), g.lam)
            b = self._raw_linear(g)
            res[g.idx] = self.norm_sq[g.idx] - 2.0 * np.einsum("sr,sr->s", g.lam, b) + model_sq
        return 0.5 * float(np.maximum(res, 0.0).sum()), self._rel(res, self.norm_sq)

    # -- one iteration with restart ------------------------------------------

    def _refresh_grams(self):
        """After the factors changed outside a mode update."""
        for g in self.groups:
            for n in range(self.N):
                g.refresh(n)

    def _copy_iterate(self, backward):
        """Previous iterate := current one, or with ``backward`` the reverse."""
        for g in self.groups:
            curr, prev = g.arrays()
            for dst, src in zip(*((curr, prev) if backward else (prev, curr))):
                dst[...] = src

    def _step(self, obj_last):
        """One extrapolated sweep, redone plainly if the objective rises."""
        t_new = t_next(self.t_k)
        w_hat = (self.t_k - 1.0) / t_new
        self.t_k = t_new
        step = self._evaluate(obj_last, self._sweep(w_hat))
        if step[0] >= obj_last:
            # extrapolation overshot: redo the iteration without it
            self.n_restarts += 1
            self._copy_iterate(backward=True)
            self._refresh_grams()
            step = self._evaluate(mtt=self._sweep(0.0))
        return step

    # -- escape from a dead shared slot ---------------------------------------

    def _escape(self, obj_last):
        """Swap a shared component held by individual slots into a dead
        shared slot; see the module docstring.

        Returns the evaluation of the accepted iterate, or ``None`` with the
        state untouched when there is no candidate or no strict decrease.
        """
        found = self._escape_candidate()
        if found is None:
            return None
        saved = self._save()
        self._swap(*found)
        # the swap breaks the momentum and curvature history of every block
        self.t_k = 1.0
        for g in self.groups:
            g.lip_core, g.lip_fac = None, [None] * self.N
        self.b = self._evaluate()[2]
        for _ in range(ESCAPE_SWEEPS):
            step = self._evaluate(obj_last, self._sweep(0.0))
            if step[0] < obj_last:
                return step
            self.b = step[2]
        self._load(saved)
        return None

    def _escape_candidate(self):
        """First shared slot dead in some block whose component individual
        slots of two or more blocks hold: ``(slot, coupled modes, {block:
        individual slot})``."""
        free = max(self.counts)
        if any(self.p.ranks[s] <= free for s in range(self.S)):
            return None
        for r in range(free):
            weights = [b.weights[r] for b in self.curr]
            if min(weights) > 0.0:
                continue
            modes = [n for n in range(self.N) if r < self.counts[n]]
            match = self._match_individual(modes, free)
            if len(match) >= 2:
                return r, modes, match
        return None

    def _match_individual(self, modes, free):
        """Largest set of blocks whose live individual slots agree in
        ``modes`` with one anchor slot among them (product of per-mode
        cosines at least ``ESCAPE_AGREEMENT``), as ``{block: slot}``; of
        equal sets the most agreeing, then the first, is kept.
        """
        units = []
        for b in self.curr:
            cols = [b.factors[n][:, free:] for n in modes]
            units.append([c / np.maximum(np.linalg.norm(c, axis=0), 1e-300) for c in cols])
        best, best_key = {}, (0, 0.0)
        for a in range(self.S):
            for i in np.flatnonzero(self.curr[a].weights[free:] > 0.0):
                group, total = {a: free + i}, 0.0
                for c in range(self.S):
                    if c == a:
                        continue
                    agree = np.ones(units[c][0].shape[1])
                    for ua, uc in zip(units[a], units[c]):
                        agree *= ua[:, i] @ uc
                    agree[self.curr[c].weights[free:] <= 0.0] = 0.0
                    j = int(np.argmax(agree))
                    if agree[j] >= ESCAPE_AGREEMENT:
                        group[c] = free + j
                        total += agree[j]
                if (len(group), total) > best_key:
                    best, best_key = group, (len(group), total)
        return best

    def _swap(self, r, modes, match):
        """Move the matched component into shared slot ``r``, and the slot's
        old content into each matched block's vacated slot."""
        norms = {s: [np.linalg.norm(self.curr[s].factors[n][:, j]) for n in range(self.N)]
                 for s, j in match.items()}
        shared = {}
        for n in modes:
            # mean direction at the matched columns' geometric-mean length
            size = np.exp(np.mean([np.log(norms[s][n]) for s in match]))
            mean = sum(self.curr[s].factors[n][:, j] / norms[s][n] for s, j in match.items())
            shared[n] = mean * (size / np.linalg.norm(mean))
        for s in range(self.S):
            facs, lam = self.curr[s].factors, self.curr[s].weights
            if s not in match:
                # no vacated slot to take the old content: it is replaced
                for n in modes:
                    facs[n][:, r] = shared[n]
                continue
            j = match[s]
            scale, dead = lam[j], lam[r] == 0.0
            lam[j] = lam[r]
            for n in range(self.N):
                old = facs[n][:, r].copy()
                if n in modes:
                    scale *= norms[s][n] / np.linalg.norm(shared[n])
                    facs[n][:, r] = shared[n]
                else:
                    facs[n][:, r] = facs[n][:, j]
                facs[n][:, j] = old
            lam[r] = scale
            if dead:
                self._reseed(s, j)
        self._copy_iterate(backward=False)
        self._refresh_grams()

    def _reseed(self, s, j):
        """Fill dead individual slot ``j`` of block ``s`` with a nonnegative
        rank-1 fit of the block's residual against the data the mode
        iterates on: the raw tensor, or the compressed model in lra mode."""
        blk = self.curr[s]
        data = self.p.tensors[s] if self.tilde is None else reconstruct(self.tilde[s])
        cols, sigma = _rank1_nonnegative(data - reconstruct(blk))
        if sigma == 0.0:
            # nothing positive left to fit: the slot keeps the moved columns
            return
        for n, col in enumerate(cols):
            # at the slot's usual column length, so step sizes stay balanced
            length = float(np.mean(np.linalg.norm(blk.factors[n], axis=0)))
            blk.factors[n][:, j] = col[:, 0] * length
            sigma /= length
        blk.weights[j] = sigma

    def _save(self):
        stacks = [[a.copy() for part in g.arrays() for a in part] for g in self.groups]
        steps = [(g.lip_core, list(g.lip_fac)) for g in self.groups]
        return stacks, steps, self.b, self.t_k

    def _load(self, saved):
        stacks, steps, self.b, self.t_k = saved
        for g, arrays, (lip_core, lip_fac) in zip(self.groups, stacks, steps):
            g.lip_core, g.lip_fac = lip_core, lip_fac
            for dst, src in zip([a for part in g.arrays() for a in part], arrays):
                dst[...] = src
        self._refresh_grams()


def _rank1_nonnegative(tensor):
    """Unit nonnegative columns and scale of a rank-1 fit by 10 projected
    power sweeps; a zero scale when the tensor has no positive direction.

    Starts from the mode sums of the positive part, so it draws nothing.
    """
    # C order keeps every MTTKRP of the power sweeps copy-free
    tensor = np.ascontiguousarray(tensor)
    pos = np.maximum(tensor, 0.0)
    cols = []
    for n in range(tensor.ndim):
        v = matricize(pos, n).sum(axis=1, keepdims=True)
        cols.append(v / max(np.linalg.norm(v), 1e-300))
    for _ in range(10):
        for n in range(tensor.ndim):
            v = np.maximum(factor_linear_term(tensor, cols, n), 0.0)
            norm = np.linalg.norm(v)
            if norm == 0.0:
                return cols, 0.0
            cols[n] = v / norm
    return cols, max(float(core_linear_term(tensor, cols)[0]), 0.0)


def solve(problem, opts=None):
    """Run the coupled decomposition; see the module docstring.

    Stops when the original-tensor relative error changes by less than
    ``opts.tol`` between iterations ("tolerance"), in lra mode also when
    the compressed-model relative error does, or after ``opts.max_iter``
    iterations ("max_iterations").  Before stopping by tolerance with
    iterations left, it tries one escape from a dead shared slot and
    carries on if the escape is kept.
    """
    opts = opts if opts is not None else SolverOptions()
    problem.validate()

    compress_seconds, tilde = 0.0, None
    if problem.mode == "lra":
        base = problem.als_options if problem.als_options is not None else AlsOptions()
        tic = time.perf_counter()
        tilde = []
        for s, (tensor, rank) in enumerate(zip(problem.tensors, problem.ranks)):
            try:
                tilde.append(cpd_als(tensor, rank, replace(base, seed=base.seed + s)).model)
            except ValueError as exc:
                raise ValueError(f"compression of block {s} failed: {exc}") from exc
        compress_seconds = time.perf_counter() - tic

    state = _Apg(problem, opts, tilde)
    t0 = time.perf_counter()

    obj, rel_fit, state.b = state._evaluate()
    obj_orig, rel_err = state._report(obj, rel_fit)
    obj_history, rel_history = [obj], [rel_err]
    trace = [TraceRow(0, obj_orig, rel_err, time.perf_counter() - t0)]

    termination = "max_iterations"
    row = trace[0]
    stalled = False
    for k in range(1, opts.max_iter + 1):
        state._iter_tag = k
        if stalled:
            step = state._escape(obj_history[-1])
            if step is None:
                # nothing to escape to, or no strict decrease: stop as is
                termination = "tolerance"
                break
            state.n_escapes += 1
        else:
            step = state._step(obj_history[-1])
        obj, new_fit, state.b = step
        obj_orig, new_rel = state._report(obj, new_fit)
        obj_history.append(obj)
        rel_history.append(new_rel)
        row = TraceRow(k, obj_orig, new_rel, time.perf_counter() - t0)
        if k % opts.trace_every == 0:
            trace.append(row)
        stalled = abs(new_rel - rel_err) < opts.tol or abs(new_fit - rel_fit) < opts.tol
        if stalled and (k == opts.max_iter or not state.can_escape):
            termination = "tolerance"
            break
        rel_err, rel_fit = new_rel, new_fit
    if trace[-1] is not row:
        trace.append(row)

    return SolveResult(
        factors=CoupledFactorSet(state.curr, list(problem.coupled_counts)),
        trace=trace,
        termination_reason=termination,
        objective_history=obj_history,
        rel_err_history=rel_history,
        n_iter=len(obj_history) - 1,
        n_restarts=state.n_restarts,
        n_escapes=state.n_escapes,
        solve_seconds=time.perf_counter() - t0,
        compress_seconds=compress_seconds,
        compression=tilde,
    )
