"""Coupled nonnegative CP decomposition by alternating proximal gradient.

``S`` nonnegative tensors are decomposed jointly; per mode ``n`` the first
``L_n`` factor columns are shared by all blocks.  Each iteration takes one
projected gradient step per variable (core weight vectors first, then factor
matrices mode by mode) at a Nesterov-extrapolated point, with the step size
``1/L`` set by an upper bound ``L`` on the spectral norm of the
corresponding gram surrogate.  Those surrogates are entrywise nonnegative,
so ``L`` is a Collatz-Wielandt (Perron) bound warm-started from the last
update's power iterate (see :func:`concpd.tensor_ops.spectral_norm`); a
larger ``L`` keeps the majorization.  If the objective fails to decrease
the iteration is redone from the non-extrapolated points, which restores
the majorization-minimization descent guarantee.

Blocks that share their dims and rank form a group, held as stacks: per
mode one ``(S, I_n, R)`` factor array, the weights as ``(S, R)`` and the
grams and cross-grams as ``(S, R, R)`` stacks.  Each update is then a few
batched products and one stacked step bound per group, two batched
matrix-vector products with no eigenvalue solve.  The
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
  is bounded by the same expansion over absolute values, whose cross term
  Cauchy-Schwarz bounds by the product of the norms of ``[[|mu|; |U~|]]``
  (from ``|U~|^T |U~|``, formed once) and of the model (``lam^T G lam``,
  already at hand).  The expansion plus that bound, an
  upper bound of the true value, is kept when it lies strictly below the
  last recorded objective.  Otherwise, as at the start and after a
  restart, the expansion is used as is, and a stable QR route wherever the
  compressed residual is below ``1e-3 ||M~||^2``.  A separate report reads
  the raw tensors once per recorded iterate, by the same expansion, for the
  trace's objective and relative error; evaluations that a restart rejects
  never touch them.  The stopping rule fires when that
  relative error or the compressed models' (``sqrt(res~) / ||M~||``
  averaged over blocks) stalls.

The start.  Factors and weights are drawn uniformly (see
:func:`init_factors`), except that the shared columns point along the
common components of the blocks, taken jointly from one unconstrained ALS
fit of the blocks' norm-weighted sum before any per-block fit.  A random
start of the shared columns could leave the iteration at a point where a
shared slot's weight is exactly 0 in some block while the true shared
component sits in individual slots, a point no monotone projected step
leaves.  Both modes start from the raw tensors, so they begin at the same
iterate.
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .cpd_als import AlsOptions, cpd_als
# the start's fit has a name of its own, so that calls of ``cpd_als`` through
# this module are the lra compressions alone
from .cpd_als import cpd_als as _fit_common
from .kruskal import CoupledFactorSet, KruskalTensor, reconstruct
# the solver no longer calls ``matricize`` or ``factors_khatri_rao``; they
# stay bound here because the benchmark's tracer wraps them by these names
from .tensor_ops import (  # noqa: F401
    factors_khatri_rao,
    hadamard_gram,
    khatri_rao,
    matricize,
    mttkrp,
    mttkrp_partial,
    spectral_norm,
)
# growing a Perron vector has a name of its own, so that calls of
# ``spectral_norm`` through this module are the step bounds alone
from .tensor_ops import spectral_norm as _power_steps

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

    ``n_restarts`` counts iterations redone without extrapolation; a redone
    iteration records one entry, so ``len(objective_history) == n_iter + 1``
    always holds.  ``compression`` holds the lra mode's compressions, per
    block the :class:`concpd.cpd_als.AlsResult` with the compressed model
    (``model``), its relative error (``rel_err``), its sweeps (``n_iter``)
    and whether its stop rule fired (``converged``); ``None`` in full mode.
    """

    factors: CoupledFactorSet
    trace: list
    termination_reason: str
    objective_history: list = field(repr=False, default_factory=list)
    rel_err_history: list = field(repr=False, default_factory=list)
    n_iter: int = 0
    n_restarts: int = 0
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
    """``||M - [[lam; U]]||_F^2`` from the formed residual, on the C-order
    view of ``M``, whose columns run over ``(i_2, ..., i_N)`` last index
    fastest, as the rows of ``khatri_rao(U[1:])`` do."""
    x0 = (block.factors[0] * block.weights) @ khatri_rao(block.factors[1:]).T
    d = tensor.reshape(tensor.shape[0], -1) - x0
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
    matricized-tensor-times-Khatri-Rao product ``M_(n) U_kr^(-n)`` for this
    mode (:func:`concpd.tensor_ops.mttkrp`), ``u_hat`` the (possibly
    extrapolated) point.  Takes one block, or ``(S, ...)`` stacks of blocks.
    """
    outer = lam[..., :, None] * lam[..., None, :]
    return u_hat @ (gram_skip * outer) - mtt * lam[..., None, :]


def factor_linear_term_lra(weighted, cross_others):
    """Same product against a compressed model, from small matrices only.

    ``weighted`` is ``U~_n diag(mu)`` and ``cross_others`` the cross-grams
    ``U~_m^T U_m`` of the other modes ``m``.  Takes one block, or ``(S, ...)``
    stacks of blocks.
    """
    return weighted @ np.multiply.reduce(cross_others)


def lipschitz_factor(gram_skip, lam, start=None):
    """Step-size bound for a factor update: the spectral norm of
    ``gram_skip * lam lam^T``, or with ``start`` the warm-started upper
    bound of :func:`concpd.tensor_ops.spectral_norm`, which updates
    ``start``.  Takes one block, or ``(S, ...)`` stacks."""
    return spectral_norm(gram_skip * (lam[..., :, None] * lam[..., None, :]), start)


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
    """Uniform [0, 1) draws, with the shared columns turned towards the
    blocks' common components.

    Drawn, in an order that is part of the determinism contract: the shared
    prefix by mode, then per block the individual columns by mode, then the
    weights (uniform [0, 1), or all ones in the fixed-core variant).  From
    the data: with ``L = max(coupled_counts) > 0``, a rank-``L``
    unconstrained ALS fit (:func:`concpd.cpd_als.cpd_als`, seed ``seed``) of
    the sum of ``M_s / ||M_s||`` over the blocks of block 0's dims, which
    extracts the common components from all blocks jointly, as group
    component analysis does.  Shared column ``r`` of mode ``n`` then takes
    the direction of ``|U_n[:, r]|`` at its drawn length.  The fit's rank is
    capped at what ALS accepts for those dims; columns past the cap, and
    columns whose direction has norm 0, keep their draw.  A block of norm 0
    or of non-finite norm adds nothing to the sum.
    """
    rng = np.random.default_rng(seed)
    counts = problem.coupled_counts
    dims0 = problem.tensors[0].shape
    common = [rng.random((dims0[n], counts[n])) for n in range(problem.order)]
    drawn = []
    for s in range(problem.n_blocks):
        rank = problem.ranks[s]
        ind = [rng.random((problem.tensors[s].shape[n], rank - counts[n]))
               for n in range(problem.order)]
        drawn.append((ind, rng.random(rank) if problem.update_core else np.ones(rank)))
    if max(counts) > 0:
        _point_at_common(problem.tensors, common, seed)
    blocks = []
    for ind, lam in drawn:
        # uncoupled modes may differ in size between blocks, so the
        # zero-width common slab cannot be stacked against them
        facs = [np.hstack([c, i]) if c.shape[1] else i for c, i in zip(common, ind)]
        blocks.append(KruskalTensor(facs, lam))
    return CoupledFactorSet(blocks, list(counts))


def _point_at_common(tensors, common, seed):
    """Turn the drawn shared columns ``common`` in place; see
    :func:`init_factors`."""
    dims = tensors[0].shape
    mean = np.zeros(dims)
    for t in tensors:
        norm = np.sqrt(float(np.vdot(t, t)))
        if t.shape == dims and 0.0 < norm < np.inf:
            # slice by slice, so no block-sized temporary is formed
            for i in range(dims[0]):
                mean[i] += t[i] / norm
    rank = min(max(c.shape[1] for c in common), mean.size // max(dims))
    fit = _fit_common(mean, rank, AlsOptions(seed=seed)).model
    for c, u in zip(common, fit.factors):
        for r in range(min(c.shape[1], rank)):
            direction = np.abs(u[:, r])
            length = np.linalg.norm(direction)
            if length > 0.0:
                c[:, r] = direction * (np.linalg.norm(c[:, r]) / length)


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------

# power steps that grow a step bound's start from ones before its first use
_GROW_STEPS = 10


def _quad(x, mats, y):
    """``x_s^T mats_s y_s`` for every matrix of a stack."""
    return np.einsum("sr,srq,sq->s", x, mats, y)


def _grown_start(mat):
    """A start for :func:`spectral_norm`'s bounds on the ``(S, R, R)`` stack
    ``mat``: ones after ``_GROW_STEPS`` power steps on ``mat``, so that the
    first bound is close to the norm too."""
    start = np.ones(mat.shape[:-1])
    for _ in range(_GROW_STEPS // 2):  # each call takes two steps
        _power_steps(mat, start)
    return start


class _Group:
    """Blocks ``idx`` of one shape and rank: current and previous factors
    ``u[n]``, ``u_prev[n]`` ``(S, I_n, R)``, weights ``(S, R)``, per mode the
    grams ``(N, S, R, R)``, ``data_sq``, the fitted data's ``||M||^2``,
    ``lip``, the step bounds of the last update by ``"core"`` or mode, zero
    before the first, which so takes no extrapolation, and ``perron``, by
    the same keys, the ``(S, R)`` starts of those bounds, which each bound
    carries forward to the next (:func:`spectral_norm`); any positive start
    gives a valid bound, so a restart leaves them be.  In lra mode
    ``cross`` holds the cross-grams ``U~_n^T U_n``, ``(N, S, R~, R)``, one
    product per mode update, and ``tilde_abs`` the norms
    ``||[[|mu|; |U~|]]||`` that scale the expansion's rounding-error bound.
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
        self.lip = dict.fromkeys(["core", *range(order)], np.zeros(size))
        self.perron = {}
        self.data_sq = norm_sq[idx]
        self.tilde_t = None
        if tilde is not None:
            facs = [np.stack([tilde[s].factors[n] for s in idx]) for n in range(order)]
            self.mu = np.stack([tilde[s].weights for s in idx])
            rt = self.mu.shape[1]
            self.tilde_t = [f.transpose(0, 2, 1).copy() for f in facs]
            self.tilde_mtt = [f * self.mu[:, None, :] for f in facs]
            self.cross = np.empty((order, size, rt, rank))
            self.data_sq = _quad(self.mu, hadamard_gram(facs), self.mu)
            mu_abs, abs_gram = np.abs(self.mu), hadamard_gram([np.abs(f) for f in facs])
            self.tilde_abs = np.sqrt(_quad(mu_abs, abs_gram, mu_abs))
            # no term of the expansion passes through more roundings than
            # this (gram sums, Hadamard and quadratic-form products and sums,
            # two additions); eps, twice the unit roundoff, covers the rest,
            # the bound's own two square roots, sum and square included
            roundings = sum(f.shape[1] for f in facs) + order + (rank + rt) ** 2 + 4
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

        self.t_k, self.n_restarts = 1.0, 0

    # -- block updates -----------------------------------------------------

    def _update_cores(self, w_hat):
        for g, linear in zip(self.groups, self.b):
            gram_all = g.gram.prod(axis=0)
            if "core" not in g.perron:
                g.perron["core"] = _grown_start(gram_all)
            ld = spectral_norm(gram_all, g.perron["core"])
            ld_prev, g.lip["core"] = g.lip["core"], ld
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
            if n not in g.perron:
                g.perron[n] = _grown_start(gram_skip * (g.lam[:, :, None] * g.lam[:, None, :]))
            lu = lipschitz_factor(gram_skip, g.lam, g.perron[n])
            lu_prev, g.lip[n] = g.lip[n], lu
            if self.tilde is None:
                mtt = np.empty_like(g.u[n])
                for j, s in enumerate(g.idx):
                    tensor, facs = self.p.tensors[s], self.curr[s].factors
                    if n == 1:  # the first factor is final for the rest of the sweep
                        self._workspace[s] = mttkrp_partial(tensor, facs[0], self._workspace[s])
                    mtt[j] = mttkrp(tensor, facs, n, self._workspace[s])
            else:
                mtt = factor_linear_term_lra(g.tilde_mtt[n], g.cross[self._others[n]])
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

        Returns ``(obj, rel, model_sq, staged)``: the objective, the mean
        ``sqrt(res_s) / ||M_s||`` behind it (a zero-norm block counts 0), per
        block the model's ``lam^T G lam``, and per group this iterate's core
        linear terms ``b``.  In full mode they
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
        res, data_sq, model_sq = np.empty((3, self.S))
        err, staged = np.zeros(self.S), []
        for i, g in enumerate(self.groups):
            quad = _quad(g.lam, g.gram.prod(axis=0), g.lam)
            if self.tilde is not None:
                b = core_linear_term_lra(g.mu, g.cross)
                # the expansion over absolute values, its cross term bounded
                # by Cauchy-Schwarz as the product of the two models' norms
                err[g.idx] = g.err_scale * (g.tilde_abs + np.sqrt(quad)) ** 2
            elif mtt is not None:
                b = np.einsum("sir,sir->sr", g.u[-1], mtt[i])
            else:  # at the start
                b = self._raw_linear(g)
            staged.append(b)
            res[g.idx] = g.data_sq - 2.0 * np.einsum("sr,sr->s", g.lam, b) + quad
            data_sq[g.idx], model_sq[g.idx] = g.data_sq, quad
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
        return obj, self._rel(res, data_sq), model_sq, staged

    def _report(self, obj, rel, model_sq):
        """Objective and relative error against the original tensors, given
        ``_evaluate``'s first three values at the current iterate: the first
        two in full mode, the raw tensors' gram expansion in lra mode."""
        if self.tilde is None:
            return obj, rel
        lin = np.empty(self.S)
        for g in self.groups:
            lin[g.idx] = np.einsum("sr,sr->s", g.lam, self._raw_linear(g))
        res = self.norm_sq - 2.0 * lin + model_sq
        return 0.5 * float(np.maximum(res, 0.0).sum()), self._rel(res, self.norm_sq)

    # -- one iteration with restart ------------------------------------------

    def _restore_previous(self):
        """Current iterate := previous one."""
        for g in self.groups:
            for dst, src in zip(*g.arrays()):
                dst[...] = src
            for n in range(self.N):
                g.refresh(n)

    def _step(self, obj_last):
        """One extrapolated sweep, redone plainly if the objective rises."""
        t_new = t_next(self.t_k)
        w_hat = (self.t_k - 1.0) / t_new
        self.t_k = t_new
        step = self._evaluate(obj_last, self._sweep(w_hat))
        if step[0] >= obj_last:
            # extrapolation overshot: redo the iteration without it
            self.n_restarts += 1
            self._restore_previous()
            step = self._evaluate(mtt=self._sweep(0.0))
        return step

def solve(problem, opts=None):
    """Run the coupled decomposition; see the module docstring.

    Stops when the original-tensor relative error changes by less than
    ``opts.tol`` between iterations ("tolerance"), in lra mode also when
    the compressed-model relative error does, or after ``opts.max_iter``
    iterations ("max_iterations").
    """
    opts = opts if opts is not None else SolverOptions()
    problem.validate()

    compress_seconds, compression, tilde = 0.0, None, None
    if problem.mode == "lra":
        base = problem.als_options if problem.als_options is not None else AlsOptions()
        tic = time.perf_counter()
        compression = []
        for s, (tensor, rank) in enumerate(zip(problem.tensors, problem.ranks)):
            try:
                compression.append(cpd_als(tensor, rank, replace(base, seed=base.seed + s)))
            except ValueError as exc:
                raise ValueError(f"compression of block {s} failed: {exc}") from exc
        compress_seconds = time.perf_counter() - tic
        tilde = [c.model for c in compression]

    state = _Apg(problem, opts, tilde)
    t0 = time.perf_counter()

    obj, rel_fit, model_sq, state.b = state._evaluate()
    obj_orig, rel_err = state._report(obj, rel_fit, model_sq)
    obj_history, rel_history = [obj], [rel_err]
    trace = [TraceRow(0, obj_orig, rel_err, time.perf_counter() - t0)]

    termination = "max_iterations"
    row = trace[0]
    for k in range(1, opts.max_iter + 1):
        state._iter_tag = k
        obj, new_fit, model_sq, state.b = state._step(obj_history[-1])
        obj_orig, new_rel = state._report(obj, new_fit, model_sq)
        obj_history.append(obj)
        rel_history.append(new_rel)
        row = TraceRow(k, obj_orig, new_rel, time.perf_counter() - t0)
        if k % opts.trace_every == 0:
            trace.append(row)
        if abs(new_rel - rel_err) < opts.tol or abs(new_fit - rel_fit) < opts.tol:
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
        solve_seconds=time.perf_counter() - t0,
        compress_seconds=compress_seconds,
        compression=compression,
    )
