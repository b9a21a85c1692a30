"""Behavioral tests for the coupled solver: identities, invariants, plumbing."""

import warnings

import numpy as np
import pytest

from concpd import solver as solver_module
from concpd.cpd_als import AlsOptions, cpd_als
from concpd.kruskal import CoupledFactorSet, KruskalTensor, reconstruct
from concpd.metrics import add_noise
from concpd.solver import (
    CoupledProblem,
    SolverOptions,
    core_linear_term,
    core_linear_term_lra,
    extrapolation_weight,
    factor_linear_term_lra,
    factor_surrogate,
    init_factors,
    objective,
    solve,
    t_next,
)
from concpd.synth import SynthSpec, generate
from concpd.tensor_ops import (
    factors_khatri_rao,
    hadamard_gram,
    mttkrp,
    mttkrp_partial,
    spectral_norm,
)


def make_problem(seed, S=2, dims=(6, 7, 8), rank=4, counts=(2, 2, 2),
                 snr_db=None, **kwargs):
    """Random coupled problem with known positive truth, optionally noised."""
    rng = np.random.default_rng(seed)
    common = [rng.random((dims[n], counts[n])) for n in range(len(dims))]
    tensors = []
    for _ in range(S):
        facs = [
            np.hstack([common[n], rng.random((dims[n], rank - counts[n]))])
            for n in range(len(dims))
        ]
        t = reconstruct(KruskalTensor(facs, rng.uniform(0.5, 1.5, rank)))
        if snr_db is not None:
            t = add_noise(t, snr_db=snr_db, seed=seed + 100)
        tensors.append(t)
    return CoupledProblem(tensors, rank, list(counts), **kwargs)


def assert_monotone(history, rel_tol=1e-10):
    arr = np.asarray(history)
    bound = rel_tol * np.maximum(np.abs(arr[:-1]), 1.0)
    assert (np.diff(arr) <= bound).all(), "objective increased beyond tolerance"


# --- compressed-path linear-term identities -----------------------------------


@pytest.mark.parametrize("dims", [(4, 3), (3, 4, 5), (2, 3, 4, 3)])
def test_stacked_core_linear_term_equals_each_block_bit_for_bit(dims):
    rng = np.random.default_rng(19)
    t = rng.random((3,) + dims)
    facs = [rng.random((3, d, 5)) for d in dims]
    got = core_linear_term(t, facs)
    assert got.shape == (3, 5)
    for j in range(3):
        assert np.array_equal(got[j], core_linear_term(t[j], [f[j] for f in facs]))


def test_problem_stores_each_group_in_one_stack():
    # blocks 0 and 1 share dims and rank, block 2 differs in both
    rng = np.random.default_rng(20)
    given = [rng.random((5, 6, 7)), np.asfortranarray(rng.random((5, 6, 7))),
             rng.integers(0, 3, (5, 6, 9))]
    prob = CoupledProblem(given, [3, 3, 4], [2, 1, 0])
    first, second = prob.tensors[0].base, prob.tensors[2].base
    assert first.shape == (2, 5, 6, 7) and second.shape == (1, 5, 6, 9)
    assert prob.tensors[1].base is first
    for stack in (first, second):
        assert stack.flags.c_contiguous and stack.dtype == float
    for got, t in zip(prob.tensors, given):
        assert np.array_equal(got, t) and not np.shares_memory(got, t)
    # views of the stacks are kept, in any mode; other views are copied
    again = CoupledProblem(prob.tensors, prob.ranks, prob.coupled_counts, mode="lra")
    assert all(a.base is b.base for a, b in zip(again.tensors, prob.tensors))
    swapped = CoupledProblem([prob.tensors[1], prob.tensors[0]], 3, [2, 1, 0])
    assert swapped.tensors[0].base is not first
    assert np.array_equal(swapped.tensors[0], prob.tensors[1])


def test_compressed_core_linear_term_matches_full():
    rng = np.random.default_rng(0)
    dims, rank = (5, 4, 6), 3
    facs = [rng.random((d, rank)) for d in dims]
    tilde = KruskalTensor(
        [rng.standard_normal((d, 2)) for d in dims], rng.standard_normal(2)
    )
    full = core_linear_term(reconstruct(tilde), facs)
    fast = core_linear_term_lra(tilde.weights,
                                [t.T @ u for t, u in zip(tilde.factors, facs)])
    assert np.allclose(fast, full, atol=1e-10)


def test_compressed_factor_linear_term_matches_full():
    rng = np.random.default_rng(1)
    dims, rank = (5, 4, 6), 3
    facs = [rng.random((d, rank)) for d in dims]
    tilde = KruskalTensor(
        [rng.standard_normal((d, 2)) for d in dims], rng.standard_normal(2)
    )
    dense = reconstruct(tilde)
    for n in range(3):
        full = mttkrp(dense, facs, n)
        fast = factor_linear_term_lra(tilde.factors[n] * tilde.weights,
                                      [tilde.factors[m].T @ facs[m]
                                       for m in range(3) if m != n])
        assert np.allclose(fast, full, atol=1e-10), f"mode {n}"


# --- step-size bounds against dense oracles -------------------------------------


def perron_bound(g):
    """The step bound on ``g`` from a start grown as the solver grows it,
    carried over further calls until it settles on the norm."""
    start = solver_module._grown_start(g)
    for _ in range(50):
        got = spectral_norm(g, start)
        assert got >= np.linalg.eigvalsh(g)[-1] * (1.0 - 1e-13)
    return got


def test_lipschitz_core_matches_dense_gram():
    rng = np.random.default_rng(2)
    facs = [rng.random((d, 3)) for d in (4, 5, 6)]
    kr = factors_khatri_rao(facs)
    want = np.linalg.norm(kr.T @ kr, 2)
    gram_all = hadamard_gram(facs)
    assert np.linalg.eigvalsh(gram_all)[-1] == pytest.approx(want, rel=1e-10)
    assert perron_bound(gram_all) == pytest.approx(want, rel=1e-10)


def test_lipschitz_factor_matches_dense_gram():
    rng = np.random.default_rng(3)
    facs = [rng.random((d, 3)) for d in (4, 5, 6)]
    lam = rng.uniform(0.5, 1.5, 3)
    for n in range(3):
        kr = factors_khatri_rao(facs, skip=n)
        want = np.linalg.norm(np.diag(lam) @ kr.T @ kr @ np.diag(lam), 2)
        surrogate = factor_surrogate(hadamard_gram(facs, skip=n), lam)
        assert np.linalg.eigvalsh(surrogate)[-1] == pytest.approx(want, rel=1e-10)
        assert perron_bound(surrogate) == pytest.approx(want, rel=1e-10)


BOUND_CASES = ["full", "lra-noisy", "fixed-core", "ranks-full", "stacks-lra"]


@pytest.mark.parametrize("case", BOUND_CASES)
def test_one_step_bound_per_update_and_group(monkeypatch, case):
    # every step bound goes through ``solver.spectral_norm``, one batched
    # call per group, variable and iteration, a redone iteration included;
    # growing a start from ones at the first update is no step bound
    make, opts = PINNED_SOLVES[case]
    problem = make()
    calls = []
    bound = solver_module.spectral_norm

    def counted(g, start=None):
        calls.append(start is not None)
        return bound(g, start)

    monkeypatch.setattr(solver_module, "spectral_norm", counted)
    res = solve(problem, opts)
    groups = len({(t.shape, r) for t, r in zip(problem.tensors, problem.ranks)})
    per_iter = (problem.update_core + problem.order) * groups
    assert res.n_iter > 0 and all(calls)
    assert len(calls) == per_iter * (res.n_iter + res.n_restarts)


@pytest.mark.parametrize("case", BOUND_CASES)
def test_factor_gradient_reads_the_matrix_its_step_bound_got(monkeypatch, case):
    # the finite-difference gate checks factor_gradient on the matrix of
    # factor_surrogate; per group and mode update the solver must form that
    # matrix once, bound it, and hand the very same array to the gradient
    make, opts = PINNED_SOLVES[case]
    problem = make()
    bounded, read = [], []
    bound, gradient = solver_module.spectral_norm, solver_module.factor_gradient

    def bound_seen(g, start=None):
        bounded.append(g)
        return bound(g, start)

    def gradient_seen(u_hat, surrogate, mtt, lam):
        read.append(surrogate)
        return gradient(u_hat, surrogate, mtt, lam)

    monkeypatch.setattr(solver_module, "spectral_norm", bound_seen)
    monkeypatch.setattr(solver_module, "factor_gradient", gradient_seen)
    res = solve(problem, opts)
    groups = len({(t.shape, r) for t, r in zip(problem.tensors, problem.ranks)})
    assert len(read) == problem.order * groups * (res.n_iter + res.n_restarts)
    # every array is still alive, so equal ids are the same array
    ids = {id(h) for h in read}
    factor_bounds = [g for g in bounded if id(g) in ids]
    assert len(factor_bounds) == len(read)
    assert all(g is h for g, h in zip(factor_bounds, read))


# --- momentum schedule ------------------------------------------------------------


def test_momentum_sequence_values():
    t1 = t_next(1.0)
    assert t1 == pytest.approx((1 + np.sqrt(5)) / 2, rel=1e-15)
    # first iteration carries no momentum
    assert (1.0 - 1.0) / t1 == 0.0
    t2 = t_next(t1)
    assert t2 > t1


def test_extrapolation_weight_caps():
    # growing step bound tightens the cap below the momentum weight
    assert extrapolation_weight(0.9, 1.0, 4.0, 0.9999) == pytest.approx(
        0.9999 * 0.5
    )
    # shrinking step bound leaves the momentum weight in charge
    assert extrapolation_weight(0.5, 4.0, 1.0, 0.9999) == 0.5
    assert extrapolation_weight(0.5, 0.0, 1.0, 0.9999) == 0.0
    assert extrapolation_weight(0.5, 1.0, 0.0, 0.9999) == 0.0


def test_extrapolation_weight_on_arrays_equals_the_scalar_calls():
    # the solver passes a group's stacked bounds: live entries, a zero
    # previous bound (the first update), a zero current one (a dead block)
    prev = np.array([1.0, 4.0, 0.0, 2.5, 0.0, 3.0, 1e-300])
    curr = np.array([4.0, 1.0, 1.0, 0.0, 0.0, 7.0, 1e300])
    for w_hat in (0.0, 0.3, 0.9):
        got = extrapolation_weight(w_hat, prev, curr, 0.9999)
        want = np.array([extrapolation_weight(w_hat, p, c, 0.9999)
                         for p, c in zip(prev.tolist(), curr.tolist())])
        assert got.tobytes() == want.tobytes()
        assert not got[2:5].any()


# --- initialization -----------------------------------------------------------------


def test_init_shares_common_prefix_and_is_deterministic():
    prob = make_problem(4, counts=(2, 1, 0))
    a = init_factors(prob, seed=9)
    b = init_factors(prob, seed=9)
    for s in range(prob.n_blocks):
        for n in range(3):
            np.testing.assert_array_equal(
                a.blocks[s].factors[n], b.blocks[s].factors[n]
            )
        ln = prob.coupled_counts
        for n in range(3):
            np.testing.assert_array_equal(
                a.blocks[s].factors[n][:, : ln[n]],
                a.blocks[0].factors[n][:, : ln[n]],
            )
    c = init_factors(prob, seed=10)
    assert not np.array_equal(a.blocks[0].factors[0], c.blocks[0].factors[0])


def uniform_draws(problem, seed):
    """The draws :func:`init_factors` makes, in its order: the shared prefix
    by mode, then per block the individual columns by mode and the weights."""
    rng = np.random.default_rng(seed)
    counts, dims0 = problem.coupled_counts, problem.tensors[0].shape
    common = [rng.random((dims0[n], counts[n])) for n in range(problem.order)]
    blocks = []
    for t, rank in zip(problem.tensors, problem.ranks):
        ind = [rng.random((t.shape[n], rank - counts[n])) for n in range(problem.order)]
        blocks.append((ind, rng.random(rank) if problem.update_core else np.ones(rank)))
    return common, blocks


@pytest.mark.parametrize("update_core", [True, False])
def test_init_keeps_the_draws_and_the_shared_lengths(update_core):
    prob = uncoupled_mode_problem("full", three_blocks=True)
    prob.update_core = update_core
    start = init_factors(prob, seed=9)
    common, drawn = uniform_draws(prob, seed=9)
    for blk, (ind, lam) in zip(start.blocks, drawn):
        np.testing.assert_array_equal(blk.weights, lam)
        for n, ln in enumerate(prob.coupled_counts):
            np.testing.assert_array_equal(blk.factors[n][:, ln:], ind[n])
            np.testing.assert_allclose(np.linalg.norm(blk.factors[n][:, :ln], axis=0),
                                       np.linalg.norm(common[n], axis=0), rtol=1e-12)
            if ln:
                assert not np.array_equal(blk.factors[n][:, :ln], common[n])


def test_init_points_shared_columns_along_the_block_mean_fit():
    # blocks 0 and 1 share block 0's dims; block 2 differs in mode 2 and is
    # left out.  Block 1 is 1e3 times larger, so a plain sum would be its fit
    prob = uncoupled_mode_problem("full", three_blocks=True)
    prob.tensors[1] = prob.tensors[1] * 1e3
    start = init_factors(prob, seed=3)
    mean = sum(t / np.linalg.norm(t) for t in prob.tensors[:2])
    fit = cpd_als(mean, max(prob.coupled_counts), AlsOptions(seed=3)).model
    for n, ln in enumerate(prob.coupled_counts):
        for r in range(ln):
            got, want = start.blocks[0].factors[n][:, r], np.abs(fit.factors[n][:, r])
            np.testing.assert_allclose(got / np.linalg.norm(got),
                                       want / np.linalg.norm(want), rtol=1e-9)


def test_init_keeps_draws_past_the_fit_rank_and_without_direction():
    # 2 x 3 blocks admit a rank-2 ALS fit at most: shared column 2 keeps its
    # draw, and the problem solves as before
    rng = np.random.default_rng(0)
    prob = CoupledProblem([rng.random((2, 3))] * 2, 3, [3, 3])
    start = init_factors(prob, seed=0)
    common, _ = uniform_draws(prob, seed=0)
    for n in range(2):
        np.testing.assert_array_equal(start.blocks[0].factors[n][:, 2], common[n][:, 2])
        assert not np.array_equal(start.blocks[0].factors[n][:, :2], common[n][:, :2])
    res = solve(prob, SolverOptions(seed=0))
    assert res.termination_reason == "tolerance"
    # zero tensors give every fitted column norm 0
    prob = CoupledProblem([np.zeros((4, 5, 6))] * 2, 3, [1, 1, 1])
    start = init_factors(prob, seed=7)
    common, _ = uniform_draws(prob, seed=7)
    for n in range(3):
        np.testing.assert_array_equal(start.blocks[1].factors[n][:, :1], common[n])


def test_init_fixed_core_uses_unit_weights():
    prob = make_problem(5, update_core=False)
    start = init_factors(prob, seed=0)
    for blk in start.blocks:
        np.testing.assert_array_equal(blk.weights, np.ones(4))


# --- solve: invariants ---------------------------------------------------------------


def test_objective_history_monotone_full_mode():
    prob = make_problem(6, snr_db=20.0)
    res = solve(prob, SolverOptions(max_iter=150, seed=1))
    assert_monotone(res.objective_history)
    assert res.termination_reason in ("tolerance", "max_iterations")
    assert len(res.objective_history) == res.n_iter + 1
    assert len(res.rel_err_history) == res.n_iter + 1


def test_full_objective_from_gram_expansion_matches_explicit(monkeypatch):
    # the explicit residual is formed at the start and around restarts; most
    # entries come from the gram expansion, which must agree with it
    prob = make_problem(6, snr_db=20.0)
    explicit = []
    formed = solver_module.residual_sq
    monkeypatch.setattr(solver_module, "residual_sq",
                        lambda t, k: explicit.append(1) or formed(t, k))
    res = solve(prob, SolverOptions(max_iter=60, tol=1e-300, seed=1))
    assert res.n_iter == 60
    assert len(explicit) < prob.n_blocks * res.n_iter // 2
    want = objective(prob.tensors, res.factors.blocks)
    assert res.objective_history[-1] == pytest.approx(want, rel=1e-10)


def test_objective_history_monotone_lra_mode():
    prob = make_problem(7, snr_db=20.0, mode="lra")
    res = solve(prob, SolverOptions(max_iter=150, seed=1))
    assert_monotone(res.objective_history)
    assert res.compress_seconds > 0.0
    assert len(res.compression) == prob.n_blocks
    for s, (als, rank) in enumerate(zip(res.compression, prob.ranks)):
        assert als.model.rank <= rank
        # each block's compression as cpd_als returns it for the block
        want = cpd_als(prob.tensors[s], rank, AlsOptions(seed=s))
        assert (als.rel_err, als.n_iter, als.converged) == (
            want.rel_err, want.n_iter, want.converged)
        assert 0.0 < als.rel_err < 1.0 and als.n_iter > 0


def compression_calls(monkeypatch):
    """Per call of the compression kernel through ``solver``: the bytes and
    block count of its stack, and its seeds."""
    calls, kernel = [], solver_module.cpd_als_stack

    def counted(tensors, rank, opts, seeds):
        calls.append((tensors.nbytes, len(tensors), list(seeds)))
        return kernel(tensors, rank, opts, seeds)

    monkeypatch.setattr(solver_module, "cpd_als_stack", counted)
    return calls


def converge_problem(mode="lra"):
    """Six 16x18x20 blocks of 46 KB each, as the converge benchmark has."""
    data, _ = generate(SynthSpec(n_blocks=6, size_factor=2, snr_db=20.0, seed=3))
    return CoupledProblem(data.tensors, data.ranks, data.coupled_counts, mode=mode)


@pytest.mark.parametrize("case", ["lra", "ranks-lra", "stacks-lra", "converge"])
def test_one_compression_call_per_chunk(monkeypatch, case):
    # every group of these fits in one chunk, so each group is one call;
    # at the default ALS seed 0 a block's seed is its index
    make = converge_problem if case == "converge" else PINNED_SOLVES[case][0]
    calls = compression_calls(monkeypatch)
    problem = make()
    res = solve(problem, SolverOptions(max_iter=2, seed=0))
    groups = solver_module._groups(problem.tensors, problem.ranks)
    assert sorted(seeds for *_, seeds in calls) == sorted(groups)
    assert all(nbytes <= solver_module._CHUNK_BYTES for nbytes, *_ in calls)
    assert len(res.compression) == problem.n_blocks


@pytest.mark.parametrize("blocks_per_chunk", [2.5, 0.5])
def test_chunks_fit_the_budget_and_compress_alike(monkeypatch, blocks_per_chunk):
    # the budget decides only how blocks are batched: with room for two
    # blocks a chunk holds two, below one block each block is alone, and
    # every block's compression is the same bit for bit
    want = solve(converge_problem(), SolverOptions(max_iter=3, seed=3))
    block_bytes = converge_problem().tensors[0].nbytes
    budget = int(blocks_per_chunk * block_bytes)
    monkeypatch.setattr(solver_module, "_CHUNK_BYTES", budget)
    calls = compression_calls(monkeypatch)
    got = solve(converge_problem(), SolverOptions(max_iter=3, seed=3))
    per = max(int(blocks_per_chunk), 1)
    assert [n for _, n, _ in calls] == [per] * (6 // per)
    assert all(nbytes <= max(budget, block_bytes) for nbytes, *_ in calls)
    for a, b in zip(got.compression, want.compression, strict=True):
        assert np.array_equal(a.rel_err_history, b.rel_err_history)
        assert all(np.array_equal(x, y) for x, y in zip(a.model.factors, b.model.factors))
    assert np.array_equal(got.objective_history, want.objective_history)


def test_common_columns_stay_bit_identical():
    for mode in ("full", "lra"):
        prob = make_problem(8, counts=(2, 1, 0), mode=mode)
        res = solve(prob, SolverOptions(max_iter=60, seed=2))
        blocks = res.factors.blocks
        for n, ln in enumerate(prob.coupled_counts):
            for blk in blocks[1:]:
                np.testing.assert_array_equal(
                    blk.factors[n][:, :ln], blocks[0].factors[n][:, :ln]
                )


def test_fixed_core_variant_never_touches_weights():
    prob = make_problem(9, update_core=False, snr_db=20.0)
    res = solve(prob, SolverOptions(max_iter=80, seed=3))
    for blk in res.factors.blocks:
        np.testing.assert_array_equal(blk.weights, np.ones(4))
    assert_monotone(res.objective_history)


def test_solve_is_deterministic():
    prob_a = make_problem(10, snr_db=20.0)
    prob_b = make_problem(10, snr_db=20.0)
    res_a = solve(prob_a, SolverOptions(max_iter=50, seed=4))
    res_b = solve(prob_b, SolverOptions(max_iter=50, seed=4))
    assert res_a.objective_history == res_b.objective_history
    assert res_a.rel_err_history == res_b.rel_err_history
    for ba, bb in zip(res_a.factors.blocks, res_b.factors.blocks):
        np.testing.assert_array_equal(ba.weights, bb.weights)
        for fa, fb in zip(ba.factors, bb.factors):
            np.testing.assert_array_equal(fa, fb)


def test_restarts_are_counted_and_monotonicity_survives_them():
    # noisy problems at tight tolerance exercise the overshoot safeguard
    prob = make_problem(16, snr_db=10.0)
    res = solve(prob, SolverOptions(max_iter=400, seed=5))
    assert res.n_restarts >= 1
    assert_monotone(res.objective_history)


def assert_staged_terms_exact(state, staged):
    """Each group's stack of staged core terms against :func:`core_linear_term`."""
    for g, b in zip(state.groups, staged):
        for row, s in zip(b, g.idx):
            want = core_linear_term(state.p.tensors[s], state.curr[s].factors)
            np.testing.assert_allclose(row, want, rtol=1e-12)


def test_staged_core_terms_are_exact_across_restarts():
    # the full-mode core terms come from the MTTKRPs a sweep returns; a
    # restart must never let a product of the discarded sweep through
    prob = make_problem(16, snr_db=10.0)
    state = solver_module._Apg(prob, SolverOptions(seed=5), None)
    obj, *_ = state.accepted = state._evaluate()
    for k in range(1, 401):
        state._iter_tag = k
        obj, *_ = state._step(obj)
        assert_staged_terms_exact(state, state.accepted[3])
        if state.n_restarts >= 2:
            break
    assert state.n_restarts >= 2


def test_cached_gram_product_is_current_at_every_core_update(monkeypatch):
    # the core update reads the gram product that the last evaluation
    # formed; a restart restores the previous iterate and must form it anew
    def assert_current(state):
        for g in state.groups:
            assert np.array_equal(g.gram_all, g.gram.prod(axis=0))

    update = solver_module._Apg._update_cores

    def checked(self, w_hat):
        assert_current(self)
        update(self, w_hat)

    monkeypatch.setattr(solver_module._Apg, "_update_cores", checked)
    prob = make_problem(16, snr_db=10.0)
    state = solver_module._Apg(prob, SolverOptions(seed=5), None)
    obj, *_ = state.accepted = state._evaluate()
    for k in range(1, 401):
        state._iter_tag = k
        obj, *_ = state._step(obj)
        assert_current(state)
        if state.n_restarts >= 2:
            break
    assert state.n_restarts >= 2


def test_full_steps_rewrite_one_partial_buffer_per_group():
    # every sweep rebuilds the first factor's partial product of the whole
    # group in place, so its pages stay with the solver instead of being
    # faulted in anew
    prob = PINNED_SOLVES["stacks-full"][0]()
    state = solver_module._Apg(prob, SolverOptions(seed=0), None)
    assert len(state.groups) > 1
    obj, *_ = state.accepted = state._evaluate()
    obj, *_ = state._step(obj)
    before = [g.partial for g in state.groups]
    obj, *_ = state._step(obj)
    for g, old in zip(state.groups, before):
        assert g.partial.shape == g.data.shape[:1] + g.data.shape[2:] + g.u[0].shape[-1:]
        assert np.shares_memory(old, g.partial)
        for j, s in enumerate(g.idx):
            np.testing.assert_array_equal(
                g.partial[j], mttkrp_partial(prob.tensors[s], state.curr[s].factors[0]))


def test_max_iter_zero_returns_initialization():
    prob = make_problem(12)
    res = solve(prob, SolverOptions(max_iter=0, seed=6))
    assert res.n_iter == 0
    assert res.termination_reason == "max_iterations"
    assert len(res.objective_history) == 1
    assert len(res.trace) == 1 and res.trace[0].iteration == 0
    start = init_factors(prob, seed=6)
    for got, want in zip(res.factors.blocks, start.blocks):
        for f_got, f_want in zip(got.factors, want.factors):
            np.testing.assert_array_equal(f_got, f_want)


def test_zero_tensors_are_handled():
    prob = CoupledProblem(
        [np.zeros((4, 5, 6)), np.zeros((4, 5, 6))], 3, [1, 1, 1]
    )
    res = solve(prob, SolverOptions(max_iter=50, seed=7))
    assert res.rel_err_history[-1] == 0.0
    assert np.isfinite(res.objective_history).all()
    for blk in res.factors.blocks:
        assert np.isfinite(blk.weights).all()


# at rank 1 the live block reaches its fit within 10 steps; from then on a
# redone step that rises by a rounding keeps the previous iterate
@pytest.mark.parametrize("rank, counts", [(3, [1, 1, 1]), (1, [0, 0, 0])],
                         ids=["mode-bound", "core-bound"])
def test_a_dead_block_in_a_live_group_stays_put(rank, counts):
    # the zero block's surrogates reach exactly 0, a mode's and at rank 1 the
    # core's too.  A zero surrogate gives a zero gradient and a zero bound no
    # extrapolation, so a step leaves that block's variables as they are
    rng = np.random.default_rng(7)
    prob = CoupledProblem([np.zeros((4, 5, 6)), rng.random((4, 5, 6))], rank, counts)
    state = solver_module._Apg(prob, SolverOptions(seed=7), None)
    g, keys, dead = state.groups[0], [*range(3), "core"], set()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        obj, *_ = state.accepted = state._evaluate()
        history = [obj]
        for k in range(1, 61):
            state._iter_tag = k
            before = [u[0, :, c:].copy() for u, c in zip(g.u, counts)] + [g.lam[0].copy()]
            obj, *_ = state._step(obj)
            history.append(obj)
            after = [u[0, :, c:] for u, c in zip(g.u, counts)] + [g.lam[0]]
            for key, old, new in zip(keys, before, after):
                if g.lip[key][0] == 0.0:
                    dead.add(key)
                    assert new.tobytes() == old.tobytes(), f"{key} moved at iteration {k}"
    assert dead & set(range(3)) and ("core" in dead) == (rank == 1)
    assert np.isfinite(history).all()
    assert_monotone(history, rel_tol=0.0)


def test_heterogeneous_ranks_and_uncoupled_dims():
    rng = np.random.default_rng(13)
    t0 = rng.random((5, 6, 7))
    t1 = rng.random((5, 6, 9))  # differs only in the uncoupled mode
    prob = CoupledProblem([t0, t1], [3, 4], [2, 2, 0])
    res = solve(prob, SolverOptions(max_iter=60, seed=8))
    assert_monotone(res.objective_history)
    blocks = res.factors.blocks
    assert blocks[0].rank == 3 and blocks[1].rank == 4
    for n in range(2):
        np.testing.assert_array_equal(
            blocks[0].factors[n][:, :2], blocks[1].factors[n][:, :2]
        )


def test_solution_is_nonnegative():
    prob = make_problem(14, snr_db=20.0)
    res = solve(prob, SolverOptions(max_iter=60, seed=9))
    for blk in res.factors.blocks:
        assert blk.is_nonnegative()


def test_lra_evaluate_keeps_the_expansion_only_when_certified(monkeypatch):
    # the compressed residual is small (so the exact route is QR), and a
    # second compression adds two components that cancel exactly, whose
    # absolute-value grams make the expansion's error bound useless
    rng = np.random.default_rng(19)
    dims, counts = (5, 6, 7), [1, 1, 1]
    common = [rng.random((d, 1)) for d in dims]
    truth = [KruskalTensor([np.hstack([c, rng.random((d, 2))]) for c, d in zip(common, dims)],
                           rng.uniform(0.5, 1.5, 3)) for _ in range(2)]
    start = CoupledFactorSet([KruskalTensor([f * rng.uniform(0.99, 1.01, f.shape[1])
                                             for f in k.factors], k.weights) for k in truth],
                             counts)
    problem = CoupledProblem([reconstruct(k) for k in truth], 3, counts, mode="lra")
    monkeypatch.setattr(solver_module, "init_factors", lambda prob, seed: start)
    qr_calls = []
    qr = solver_module._Apg._small_residual_sq
    monkeypatch.setattr(solver_module._Apg, "_small_residual_sq",
                        lambda self, s: qr_calls.append(s) or qr(self, s))

    def cancelling(k):
        vec = [rng.random((d, 1)) for d in dims]
        return KruskalTensor([np.hstack([f, v, v]) for f, v in zip(k.factors, vec)],
                             np.concatenate([k.weights, [1e3, -1e3]]))

    for tilde, certified in ((truth, True), ([cancelling(k) for k in truth], False)):
        state = solver_module._Apg(problem, SolverOptions(seed=0), tilde)
        exact = 0.5 * sum(np.linalg.norm(reconstruct(t) - reconstruct(k)) ** 2
                          for t, k in zip(tilde, state.curr))
        qr_calls.clear()
        got = state._evaluate(exact * (1.0 + 1e-6))[0]
        assert len(qr_calls) == (0 if certified else 2)
        if certified:
            assert exact <= got <= exact * (1.0 + 1e-6)
        else:
            assert got == pytest.approx(exact, rel=1e-9)
        # with no bound to beat the expansion still returns an upper bound
        assert state._evaluate(np.inf)[0] >= exact
        # the default bound, as at the start and after a restart, is exact
        assert state._evaluate()[0] == pytest.approx(exact, rel=1e-9)


def test_lra_certificate_holds_for_sign_indefinite_compressions():
    # unconstrained ALS leaves signs of both kinds in the compressed factors,
    # so |U~| differs from U~ and the cross term's bound is not the term
    prob = make_problem(7, snr_db=20.0, mode="lra")
    tilde = [cpd_als(t, 4, AlsOptions(seed=s)).model for s, t in enumerate(prob.tensors)]
    facs = np.concatenate([f.ravel() for k in tilde for f in k.factors])
    assert (facs < 0.0).any() and (facs > 0.0).any()
    state = solver_module._Apg(prob, SolverOptions(seed=1), tilde)
    obj, *_ = state.accepted = state._evaluate()
    for k in range(1, 61):
        state._iter_tag = k
        exact = 0.5 * sum(np.linalg.norm(reconstruct(t) - reconstruct(b)) ** 2
                          for t, b in zip(tilde, state.curr))
        assert state._evaluate(np.inf)[0] >= exact, f"iteration {k - 1}"
        obj, *_ = state._step(obj)


def test_lra_internal_rel_err_is_the_compressed_models():
    # the stopping rule's second quantity: sqrt(res~) / ||M~|| per block,
    # averaged, where a compressed model of zero norm counts 0
    prob = make_problem(21, mode="lra")
    rng = np.random.default_rng(21)
    tilde = [KruskalTensor([rng.random((t.shape[n], 4)) for n in range(3)], w)
             for t, w in zip(prob.tensors, (rng.uniform(0.5, 1.5, 4), np.zeros(4)))]
    state = solver_module._Apg(prob, SolverOptions(seed=0), tilde)
    obj, rel_int, model_sq, _ = state._evaluate()
    m = reconstruct(tilde[0])
    want = np.linalg.norm(m - reconstruct(state.curr[0])) / np.linalg.norm(m)
    assert rel_int == pytest.approx(want / 2, rel=1e-9)
    # the report reads the original tensors
    _, rel = state._report(obj, rel_int, model_sq)
    ratios = [np.linalg.norm(t - reconstruct(b)) / np.linalg.norm(t)
              for t, b in zip(prob.tensors, state.curr)]
    assert rel == pytest.approx(float(np.mean(ratios)), rel=1e-9)
    assert rel != pytest.approx(rel_int, rel=1e-3)
    # in full mode the two are one quantity
    full = solver_module._Apg(make_problem(21), SolverOptions(seed=0), None)
    obj, rel, model_sq, _ = full._evaluate()
    assert full._report(obj, rel, model_sq) == (obj, rel)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_objectives_name_the_block():
    # block 1's squared norm overflows
    for mode, error, match in (("full", FloatingPointError, "block 1 .* iteration 0"),
                               ("lra", ValueError, "compression of block 1 failed")):
        prob = make_problem(22, mode=mode)
        prob.tensors[1] = prob.tensors[1] * 1e154
        with pytest.raises(error, match=match):
            solve(prob, SolverOptions(max_iter=5, seed=0))
    # in lra mode the fitted residuals and the reported ones are each checked
    prob = make_problem(22, mode="lra")
    rng = np.random.default_rng(22)
    tilde = [KruskalTensor([rng.random((t.shape[n], 4)) for n in range(3)], np.ones(4))
             for t in prob.tensors]
    prob.tensors[1] = prob.tensors[1] * 1e154
    state = solver_module._Apg(prob, SolverOptions(seed=0), tilde)
    obj, rel, model_sq, _ = state._evaluate()
    with pytest.raises(FloatingPointError, match="block 1 .* iteration 0"):
        state._report(obj, rel, model_sq)
    tilde[1] = KruskalTensor(tilde[1].factors, np.full(4, 1e154))
    state = solver_module._Apg(make_problem(22, mode="lra"), SolverOptions(seed=0), tilde)
    with pytest.raises(FloatingPointError, match="block 1 .* iteration 0"):
        state._evaluate()


@pytest.mark.parametrize("mode", ["full", "lra"])
@pytest.mark.parametrize("dims,counts", [((6, 7), (2, 1)), ((4, 5, 3, 6), (2, 1, 0, 2))],
                         ids=["order2", "order4"])
def test_coupled_solves_of_other_orders(mode, dims, counts):
    prob = make_problem(18, S=3, dims=dims, counts=counts, snr_db=20.0, mode=mode)
    res = solve(prob, SolverOptions(max_iter=200, seed=13))
    assert (np.diff(res.objective_history) <= 0.0).all()
    assert res.rel_err_history[-1] < res.rel_err_history[0]
    blocks = res.factors.blocks
    for n, ln in enumerate(counts):
        for blk in blocks[1:]:
            np.testing.assert_array_equal(blk.factors[n][:, :ln], blocks[0].factors[n][:, :ln])
    again = solve(make_problem(18, S=3, dims=dims, counts=counts, snr_db=20.0, mode=mode),
                  SolverOptions(max_iter=200, seed=13))
    assert again.objective_history == res.objective_history
    assert again.rel_err_history == res.rel_err_history
    for ba, bb in zip(blocks, again.factors.blocks):
        np.testing.assert_array_equal(ba.weights, bb.weights)
        for fa, fb in zip(ba.factors, bb.factors):
            np.testing.assert_array_equal(fa, fb)


# --- solve: pinned outcomes ------------------------------------------------------------


def uncoupled_mode_problem(mode, three_blocks=False):
    """Blocks that differ in rank and in their uncoupled mode's size; with
    ``three_blocks`` the first two share both, so they form one stack."""
    if three_blocks:
        rng = np.random.default_rng(14)
        tensors = [rng.random((5, 6, 7)), rng.random((5, 6, 7)), rng.random((5, 6, 9))]
        return CoupledProblem(tensors, [3, 3, 4], [2, 1, 0], mode=mode)
    rng = np.random.default_rng(13)
    tensors = [rng.random((5, 6, 7)), rng.random((5, 6, 9))]
    return CoupledProblem(tensors, [3, 4], [2, 2, 0], mode=mode)


PINNED_SOLVES = {
    "full": (lambda: make_problem(16, snr_db=10.0), SolverOptions(max_iter=400, seed=5)),
    "lra": (lambda: make_problem(7, snr_db=20.0, mode="lra"),
            SolverOptions(max_iter=300, seed=1)),
    "lra-noisy": (lambda: make_problem(16, snr_db=10.0, mode="lra"),
                  SolverOptions(max_iter=400, seed=5)),
    "fixed-core": (lambda: make_problem(9, update_core=False, snr_db=20.0),
                   SolverOptions(max_iter=300, seed=3)),
    "ranks-full": (lambda: uncoupled_mode_problem("full"), SolverOptions(max_iter=300, seed=8)),
    "ranks-lra": (lambda: uncoupled_mode_problem("lra"), SolverOptions(max_iter=300, seed=8)),
    "stacks-full": (lambda: uncoupled_mode_problem("full", three_blocks=True),
                    SolverOptions(max_iter=300, seed=4)),
    "stacks-lra": (lambda: uncoupled_mode_problem("lra", three_blocks=True),
                   SolverOptions(max_iter=300, seed=4)),
}

# (n_iter, n_restarts, final rel_err) of each solve; every one ends by
# tolerance.  Re-recorded when the step bounds began to come from
# warm-started Perron bounds
PINNED_OUTCOMES = {
    "full": (131, 2, 0.240192493839179),
    "lra": (130, 1, 0.09841927715291923),
    "lra-noisy": (288, 4, 0.25324954922718157),
    "fixed-core": (228, 0, 0.09850660290664495),
    "ranks-full": (166, 0, 0.42107098186084047),
    "ranks-lra": (123, 3, 0.42991393505551556),
    "stacks-full": (290, 1, 0.42298624251455713),
    "stacks-lra": (129, 1, 0.43495717151854363),
}


@pytest.mark.parametrize("name", sorted(PINNED_OUTCOMES))
def test_pinned_solve_outcomes(name):
    make, opts = PINNED_SOLVES[name]
    res = solve(make(), opts)
    n_iter, n_restarts, rel = PINNED_OUTCOMES[name]
    assert (res.n_iter, res.n_restarts) == (n_iter, n_restarts)
    assert res.termination_reason == "tolerance"
    assert res.rel_err_history[-1] == pytest.approx(rel, rel=1e-9)
    assert (np.diff(res.objective_history) <= 0.0).all()


@pytest.mark.parametrize("seed", [981, 1135, 1211])
def test_lra_stops_by_tolerance_while_the_original_error_drifts(seed):
    # the original-tensor relative error of these problems keeps drifting by
    # more than tol for 1,000 iterations; the compressed one settles
    data, _ = generate(SynthSpec(n_blocks=6, size_factor=2, snr_db=20.0, seed=seed))
    problem = CoupledProblem(data.tensors, data.ranks, data.coupled_counts, mode="lra")
    res = solve(problem, SolverOptions(max_iter=1000, seed=seed))
    assert res.termination_reason == "tolerance"
    assert (np.diff(res.objective_history) <= 0.0).all()


# --- solve: trace and reporting --------------------------------------------------------


def test_trace_thinning_and_final_row():
    prob = make_problem(15)
    res = solve(prob, SolverOptions(max_iter=12, tol=1e-300, seed=10,
                                    trace_every=5))
    iters = [row.iteration for row in res.trace]
    assert iters == [0, 5, 10, 12]
    elapsed = [row.elapsed_s for row in res.trace]
    assert all(a <= b for a, b in zip(elapsed, elapsed[1:]))
    assert res.trace[-1].iteration == res.n_iter


def test_lra_trace_reports_original_tensor_quantities():
    prob = make_problem(16, snr_db=20.0, mode="lra")
    res = solve(prob, SolverOptions(max_iter=80, seed=11))
    want_obj = objective(prob.tensors, res.factors.blocks)
    got = res.trace[-1]
    assert got.obj_fun == pytest.approx(want_obj, rel=1e-8)
    ratios = [
        np.linalg.norm(t - reconstruct(b)) / np.linalg.norm(t)
        for t, b in zip(prob.tensors, res.factors.blocks)
    ]
    assert got.rel_err == pytest.approx(float(np.mean(ratios)), rel=1e-8)
    # the restart-governed history tracks the compressed objective instead
    assert res.objective_history[-1] != pytest.approx(want_obj, rel=1e-3)


@pytest.mark.parametrize("case", ["lra-noisy", "stacks-lra"])
def test_lra_reads_the_raw_tensors_once_per_recorded_iterate(monkeypatch, case):
    # evaluations that a restart rejects fit the compressed models only;
    # the report reads each raw tensor once, in one stacked call per group
    make, opts = PINNED_SOLVES[case]
    problem = make()
    raw = []
    linear = solver_module.core_linear_term

    def counted(tensor, factors):
        if any(np.shares_memory(tensor, t) for t in problem.tensors):
            assert tensor.ndim == problem.order + 1
            raw.append(len(tensor))
        return linear(tensor, factors)

    monkeypatch.setattr(solver_module, "core_linear_term", counted)
    res = solve(problem, opts)
    assert res.n_restarts == PINNED_OUTCOMES[case][1] > 0
    assert sum(raw) == problem.n_blocks * (res.n_iter + 1)


def test_compressed_solve_tracks_full_solve_quality():
    prob_full = make_problem(17, snr_db=20.0)
    prob_lra = make_problem(17, snr_db=20.0, mode="lra")
    res_full = solve(prob_full, SolverOptions(max_iter=300, seed=12))
    res_lra = solve(prob_lra, SolverOptions(max_iter=300, seed=12))
    assert abs(res_full.rel_err_history[-1] - res_lra.rel_err_history[-1]) < 0.05


# --- validation ----------------------------------------------------------------------


def test_problem_validation_errors():
    good = np.ones((3, 3, 3))
    with pytest.raises(ValueError, match="negative"):
        CoupledProblem([-good], 2, [0, 0, 0]).validate()
    with pytest.raises(ValueError, match="non-finite"):
        CoupledProblem([good * np.nan], 2, [0, 0, 0]).validate()
    with pytest.raises(ValueError, match="mode"):
        CoupledProblem([good], 2, [0, 0, 0], mode="turbo").validate()
    with pytest.raises(ValueError, match="order"):
        CoupledProblem([good, np.ones((3, 3))], 2, [0, 0, 0]).validate()
    with pytest.raises(ValueError, match="rank"):
        CoupledProblem([good], 0, [0, 0, 0]).validate()
    with pytest.raises(ValueError, match="coupled count"):
        CoupledProblem([good], 2, [3, 0, 0]).validate()
    with pytest.raises(ValueError, match="one coupled count"):
        CoupledProblem([good], 2, [0, 0]).validate()
    with pytest.raises(ValueError, match="sizes differ"):
        CoupledProblem([good, np.ones((4, 3, 3))], 2, [1, 0, 0]).validate()
    with pytest.raises(ValueError, match="one rank per block"):
        CoupledProblem([good], [2, 2], [0, 0, 0]).validate()


def test_problem_validation_names_an_empty_or_order_one_block():
    good = np.ones((3, 3, 3))
    with pytest.raises(ValueError, match=r"block 1 has an empty mode: dims \(3, 0, 3\)"):
        CoupledProblem([good, np.ones((3, 0, 3))], 2, [0, 0, 0]).validate()
    with pytest.raises(ValueError, match="block 0 has order 1, need 2 or more"):
        CoupledProblem([np.ones(4), np.ones(4)], 1, [0]).validate()


def test_solver_options_validation():
    with pytest.raises(ValueError, match="max_iter"):
        SolverOptions(max_iter=-1)
    with pytest.raises(ValueError, match="tol"):
        SolverOptions(tol=0.0)
    # a NaN tolerance would never stop the iteration
    with pytest.raises(ValueError, match="tol"):
        SolverOptions(tol=float("nan"))
    with pytest.raises(ValueError, match="delta_w"):
        SolverOptions(delta_w=1.0)
    with pytest.raises(ValueError, match="trace_every"):
        SolverOptions(trace_every=0)
