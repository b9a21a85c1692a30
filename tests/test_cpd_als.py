"""ALS compression stage: fit quality, monotonicity, degenerate inputs, and
the stacked kernel against single-block fits."""

from dataclasses import replace

import numpy as np
import pytest

from concpd.cpd_als import AlsOptions, cpd_als, cpd_als_stack
from concpd.kruskal import KruskalTensor, reconstruct
from concpd.solver import CoupledProblem, SolverOptions, solve


def rank_r_tensor(rng, dims, rank):
    k = KruskalTensor([rng.random((d, rank)) for d in dims], np.ones(rank))
    return reconstruct(k)


def test_exact_rank_one():
    rng = np.random.default_rng(0)
    t = rank_r_tensor(rng, (5, 6, 4), 1)
    res = cpd_als(t, 1, AlsOptions(seed=1))
    assert res.rel_err < 1e-6
    assert res.n_iter <= 200


def test_exact_rank_recovery_fit():
    # the default tol=1e-4 is a compression-stage setting and stops early;
    # run to depth to confirm self-consistency at the true rank
    rng = np.random.default_rng(1)
    t = rank_r_tensor(rng, (16, 18, 20), 9)
    res = cpd_als(t, 9, AlsOptions(tol=1e-9, max_iter=500, seed=2))
    assert 1.0 - res.rel_err >= 0.999


def test_zero_tensor():
    res = cpd_als(np.zeros((3, 4, 5)), 2, AlsOptions(seed=0))
    assert res.rel_err == 0.0
    assert all(np.isfinite(f).all() for f in res.model.factors)
    assert np.allclose(reconstruct(res.model), 0.0)


def test_residual_monotone_over_sweeps():
    rng = np.random.default_rng(2)
    t = rng.random((6, 7, 5))  # full-rank data, no exact fit
    res = cpd_als(t, 3, AlsOptions(tol=1e-12, max_iter=60, seed=3))
    hist = np.asarray(res.rel_err_history)
    assert hist.size >= 2
    assert np.all(np.diff(hist) <= 1e-12)


def test_reported_rel_err_matches_reconstruction():
    rng = np.random.default_rng(3)
    t = rng.random((5, 4, 6))
    res = cpd_als(t, 2, AlsOptions(seed=4))
    direct = np.linalg.norm(t - reconstruct(res.model)) / np.linalg.norm(t)
    assert res.rel_err == pytest.approx(direct, rel=1e-10)
    # an exact fit, whose residual the gram expansion would bury in its
    # cancellation error (about sqrt(eps) in the relative error): the value
    # comes from the explicit residual
    t = rank_r_tensor(np.random.default_rng(4), (5, 4, 6), 2)
    res = cpd_als(t, 2, AlsOptions(seed=4))
    direct = np.linalg.norm(t - reconstruct(res.model)) / np.linalg.norm(t)
    assert res.rel_err < 1e-10
    assert res.rel_err == pytest.approx(direct, rel=1e-3)


def test_zero_sweeps_report_the_returned_models_error():
    # no sweep runs, so the error is the drawn start's, as the lra mode
    # reports it for its compressions too
    t = np.random.default_rng(0).random((4, 5, 6))
    res = cpd_als(t, 2, AlsOptions(max_iter=0))
    direct = np.linalg.norm(t - reconstruct(res.model)) / np.linalg.norm(t)
    assert res.n_iter == 0 and res.rel_err_history == []
    assert res.rel_err == pytest.approx(direct, rel=1e-12)
    problem = CoupledProblem([t, 2.0 * t], 2, [0, 0, 0], mode="lra",
                             als_options=AlsOptions(max_iter=0))
    got = solve(problem, SolverOptions(max_iter=0)).compression
    assert got[0].rel_err == res.rel_err
    direct = np.linalg.norm(2.0 * t - reconstruct(got[1].model)) / np.linalg.norm(2.0 * t)
    assert got[1].rel_err == pytest.approx(direct, rel=1e-12)


def test_output_shapes_regardless_of_convergence():
    rng = np.random.default_rng(4)
    t = rng.random((4, 5, 3))
    res = cpd_als(t, 2, AlsOptions(max_iter=1, seed=0))
    assert [f.shape for f in res.model.factors] == [(4, 2), (5, 2), (3, 2)]
    assert res.model.weights.tolist() == [1.0, 1.0]


def test_rank_infeasible():
    with pytest.raises(ValueError, match="infeasible"):
        cpd_als(np.ones((2, 2, 2)), 5)
    # a size-0 mode leaves the other modes' systems without rows
    with pytest.raises(ValueError, match="rank 2 infeasible: mode-1 system has only 0 rows"):
        cpd_als(np.zeros((0, 3, 4)), 2)


def test_non_finite_input_rejected():
    t = np.ones((3, 3, 3))
    t[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        cpd_als(t, 1)


def test_option_validation():
    with pytest.raises(ValueError, match="rank must be >= 1"):
        cpd_als(np.ones((2, 2)), 0)
    with pytest.raises(ValueError):
        AlsOptions(tol=0.0)
    # a NaN tolerance would never stop the sweeps
    with pytest.raises(ValueError, match="tol"):
        AlsOptions(tol=float("nan"))


def test_seed_controls_initialization():
    rng = np.random.default_rng(5)
    t = rng.random((5, 5, 5))
    a = cpd_als(t, 2, AlsOptions(seed=7))
    b = cpd_als(t, 2, AlsOptions(seed=7))
    c = cpd_als(t, 2, AlsOptions(seed=8))
    for fa, fb in zip(a.model.factors, b.model.factors):
        assert np.array_equal(fa, fb)
    assert any(
        not np.array_equal(fa, fc) for fa, fc in zip(a.model.factors, c.model.factors)
    )


# ---------------------------------------------------------------------------
# the stacked kernel: every block's fit is the fit of that block alone


def assert_same_fit(got, want):
    assert np.array_equal(got.rel_err_history, want.rel_err_history)
    assert (got.n_iter, got.converged, got.rel_err) == (want.n_iter, want.converged, want.rel_err)
    for a, b in zip(got.model.factors, want.model.factors, strict=True):
        assert np.array_equal(a, b)
        assert a.flags.f_contiguous == b.flags.f_contiguous
        assert a.flags.c_contiguous == b.flags.c_contiguous
    assert np.array_equal(got.model.weights, want.model.weights)


@pytest.mark.parametrize("dims", [(7, 6), (5, 6, 4), (4, 3, 5, 3)],
                         ids=["order2", "order3", "order4"])
@pytest.mark.parametrize("max_iter", [0, 12, 200])
def test_stack_fits_equal_each_block_alone(dims, max_iter):
    # an exact rank-2 block, a noisy one, two of full rank, and a zero block:
    # they stop at different sweeps, and the zero block at its first
    rng = np.random.default_rng(len(dims))
    blocks = [rank_r_tensor(rng, dims, 2)]
    blocks.append(blocks[0] + 0.05 * rng.random(dims))
    blocks += [rng.random(dims), np.zeros(dims), 3.0 * rng.random(dims)]
    stack = np.stack(blocks)
    opts = AlsOptions(tol=1e-6, max_iter=max_iter, seed=0)
    seeds = [11, 4, 7, 0, 2]
    got = cpd_als_stack(stack, 2, opts, seeds)
    for block, fit, seed in zip(blocks, got, seeds, strict=True):
        assert_same_fit(fit, cpd_als(block, 2, replace(opts, seed=seed)))
    sweeps = [fit.n_iter for fit in got]
    if max_iter == 200:
        assert len(set(sweeps)) >= 3 and all(fit.converged for fit in got)
    elif max_iter == 12:
        assert 12 in sweeps and min(sweeps) < 12
        assert not all(fit.converged for fit in got)
    zero = got[3]
    assert zero.rel_err == 0.0
    if max_iter:
        # a zero ridge leaves the factor 0
        assert zero.n_iter == 1 and not any(f.any() for f in zero.model.factors)


def test_stack_names_what_each_block_raised():
    rng = np.random.default_rng(6)
    stack = rng.random((3, 4, 5, 6))
    stack[1, 0, 0, 0] = np.inf
    got = cpd_als_stack(stack, 2, AlsOptions(), [0, 1, 2])
    assert isinstance(got[1], ValueError) and "non-finite" in str(got[1])
    for j in (0, 2):
        assert_same_fit(got[j], cpd_als(stack[j], 2, AlsOptions(seed=j)))
    infeasible = cpd_als_stack(stack, 40, AlsOptions(), [0, 1, 2])
    assert isinstance(infeasible[0], ValueError) and "infeasible" in str(infeasible[0])
    assert "non-finite" in str(infeasible[1]) and "infeasible" in str(infeasible[2])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_diverging_block_leaves_the_stack_alone():
    # block 1's grams overflow in the first sweep; the others sweep on
    rng = np.random.default_rng(22)
    stack = np.stack([rank_r_tensor(rng, (6, 7, 8), 4) for _ in range(3)])
    stack[1] *= 1e154
    got = cpd_als_stack(stack, 4, AlsOptions(), [5, 6, 7])
    assert isinstance(got[1], ValueError)
    assert str(got[1]) == "ALS diverged to non-finite values at sweep 1"
    with pytest.raises(ValueError, match="diverged"):
        cpd_als(stack[1], 4, AlsOptions(seed=6))
    for j in (0, 2):
        assert_same_fit(got[j], cpd_als(stack[j], 4, AlsOptions(seed=5 + j)))
