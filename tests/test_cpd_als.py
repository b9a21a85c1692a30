"""ALS compression stage: fit quality, monotonicity, degenerate inputs."""

import numpy as np
import pytest

from concpd.cpd_als import AlsOptions, cpd_als
from concpd.kruskal import KruskalTensor, reconstruct


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


def test_output_shapes_regardless_of_convergence():
    rng = np.random.default_rng(4)
    t = rng.random((4, 5, 3))
    res = cpd_als(t, 2, AlsOptions(max_iter=1, seed=0))
    assert [f.shape for f in res.model.factors] == [(4, 2), (5, 2), (3, 2)]
    assert res.model.weights.tolist() == [1.0, 1.0]


def test_rank_infeasible():
    with pytest.raises(ValueError, match="infeasible"):
        cpd_als(np.ones((2, 2, 2)), 5)


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
