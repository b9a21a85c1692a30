"""End-to-end acceptance gate: one test per required property.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per property; every test states its tolerance inline.  All solver runs in
this module register their objective histories, and the final test asserts
the restart safeguard kept every one of them non-increasing.
"""

import numpy as np
import pytest

from concpd.cli import limit_blas_threads
from concpd.kruskal import CoupledFactorSet, KruskalTensor, reconstruct
from concpd.metrics import (
    add_noise,
    mcc,
    performance_index,
    pi_per_mode,
    psnr,
    rel_err,
    ten_fit,
)
from concpd.solver import (
    CoupledProblem,
    SolverOptions,
    core_gradient,
    core_linear_term,
    core_linear_term_lra,
    factor_gradient,
    factor_linear_term,
    factor_linear_term_lra,
    objective,
    solve,
)
from concpd.synth import SynthSpec, generate
from concpd.tensor_ops import (
    factors_khatri_rao,
    hadamard_gram,
    matricize,
    refold,
    unvectorize,
    vectorize,
)

# objective histories of every solve performed by this module, so the
# monotonicity test at the end covers the whole gate
HISTORIES = []


def tracked_solve(problem, opts, label):
    result = solve(problem, opts)
    HISTORIES.append((label, list(result.objective_history)))
    return result


def coupled_problem(spec, mode="full", update_core=True):
    data, truth = generate(spec)
    problem = CoupledProblem(data.tensors, data.ranks, data.coupled_counts,
                             mode=mode, update_core=update_core)
    return problem, truth


# ---------------------------------------------------------------------------
# finite-difference machinery for the gradient check


def fd_gradient(eval_obj, arr, h_base=1e-5):
    """Central differences of ``eval_obj`` in every entry of ``arr``."""
    grad = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = float(arr[idx])
        h = h_base * max(1.0, abs(orig))
        arr[idx] = orig + h
        f_plus = eval_obj()
        arr[idx] = orig - h
        f_minus = eval_obj()
        arr[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2.0 * h)
    return grad


def fd_shared_gradient(eval_obj, copies, width, h_base=1e-5):
    """Central differences in the leading ``width`` columns that all
    ``copies`` hold in common, perturbing every copy together."""
    grad = np.zeros((copies[0].shape[0], width))
    for i in range(copies[0].shape[0]):
        for j in range(width):
            orig = float(copies[0][i, j])
            h = h_base * max(1.0, abs(orig))
            for c in copies:
                c[i, j] = orig + h
            f_plus = eval_obj()
            for c in copies:
                c[i, j] = orig - h
            f_minus = eval_obj()
            for c in copies:
                c[i, j] = orig
            grad[i, j] = (f_plus - f_minus) / (2.0 * h)
    return grad


def rel_gap(analytic, fd):
    denom = max(np.linalg.norm(fd), np.linalg.norm(analytic), 1e-12)
    return float(np.linalg.norm(analytic - fd)) / denom


def gradient_instance(i):
    """Random 3-way coupled instance; shared widths cycle through 0, full,
    and mixed so both degenerate couplings are exercised."""
    rng = np.random.default_rng(7000 + i)
    dims = tuple(int(d) for d in rng.integers(3, 7, size=3))
    rank = int(rng.integers(1, 5))
    n_blocks = int(rng.integers(1, 4))
    if i % 4 == 0:
        counts = [0, 0, 0]
    elif i % 4 == 1:
        counts = [rank] * 3
    else:
        counts = [int(c) for c in rng.integers(0, rank + 1, size=3)]
    tensors = [rng.random(dims) for _ in range(n_blocks)]
    common = [rng.random((dims[n], counts[n])) for n in range(3)]
    blocks = []
    for _ in range(n_blocks):
        facs = [np.hstack([common[n], rng.random((dims[n], rank - counts[n]))])
                for n in range(3)]
        blocks.append(KruskalTensor(facs, rng.random(rank)))
    return tensors, CoupledFactorSet(blocks, counts)


def compressions_for(tensors, i):
    """Random signed low-rank stand-ins for the compression stage."""
    rng = np.random.default_rng(8000 + i)
    tildes = []
    for t in tensors:
        r = int(rng.integers(1, 4))
        facs = [rng.standard_normal((d, r)) for d in t.shape]
        tildes.append(KruskalTensor(facs, rng.standard_normal(r)))
    return tildes


def test_gradients_match_central_differences():
    """Analytic core and factor gradients agree with central differences to
    relative error < 1e-6 on 20 random coupled instances (order 3, dims up
    to 6, rank up to 4, up to 3 blocks), in raw and compressed forms."""
    for i in range(20):
        tensors, fset = gradient_instance(i)
        tildes = compressions_for(tensors, i)
        surrogates = [reconstruct(td) for td in tildes]
        counts = fset.coupled_counts
        for data, compressed in ((tensors, False), (surrogates, True)):
            def eval_obj():
                return objective(data, fset.blocks)

            def factor_grad(s, n):
                block = fset.blocks[s]
                src = tildes[s] if compressed else data[s]
                mtt = (factor_linear_term_lra(
                           src.factors[n] * src.weights,
                           [src.factors[m].T @ block.factors[m]
                            for m in range(3) if m != n])
                       if compressed
                       else factor_linear_term(src, block.factors, n))
                return factor_gradient(block.factors[n],
                                       hadamard_gram(block.factors, skip=n),
                                       mtt, block.weights)

            for s, block in enumerate(fset.blocks):
                src = tildes[s] if compressed else data[s]
                linear = (core_linear_term_lra(
                              src.weights,
                              [t.T @ u for t, u in zip(src.factors, block.factors)])
                          if compressed
                          else core_linear_term(src, block.factors))
                analytic = core_gradient(hadamard_gram(block.factors),
                                         block.weights, linear)
                gap = rel_gap(analytic, fd_gradient(eval_obj, block.weights))
                assert gap < 1e-6, f"instance {i} block {s} core: {gap:.2e}"

                for n in range(3):
                    if counts[n] == block.rank:
                        continue
                    fd = fd_gradient(eval_obj, block.factors[n][:, counts[n]:])
                    gap = rel_gap(factor_grad(s, n)[:, counts[n]:], fd)
                    assert gap < 1e-6, \
                        f"instance {i} block {s} mode {n}: {gap:.2e}"

            # shared columns take the summed gradient over all blocks
            for n in range(3):
                if counts[n] == 0:
                    continue
                summed = sum(factor_grad(s, n)[:, :counts[n]]
                             for s in range(fset.n_blocks))
                copies = [b.factors[n] for b in fset.blocks]
                fd = fd_shared_gradient(eval_obj, copies, counts[n])
                gap = rel_gap(summed, fd)
                assert gap < 1e-6, f"instance {i} shared mode {n}: {gap:.2e}"


# ---------------------------------------------------------------------------


def test_tensor_algebra_identities():
    """Khatri-Rao gram, compressed linear terms, and vectorize/unfold
    identities hold to 1e-10 on random sweeps (order up to 4, dims up to 5)."""
    for i in range(10):
        rng = np.random.default_rng(100 + i)
        order = int(rng.integers(2, 5))
        dims = tuple(int(d) for d in rng.integers(2, 6, size=order))
        rank = int(rng.integers(1, 4))
        mats = [rng.standard_normal((d, rank)) for d in dims]
        weights = rng.standard_normal(rank)
        model = KruskalTensor(mats, weights)
        t = rng.standard_normal(dims)

        kr = factors_khatri_rao(mats)
        np.testing.assert_allclose(kr.T @ kr, hadamard_gram(mats),
                                   rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(vectorize(reconstruct(model)),
                                   kr @ weights, rtol=1e-10, atol=1e-10)

        assert (unvectorize(vectorize(t), dims) == t).all()
        full = reconstruct(model)
        for n in range(order):
            assert (refold(matricize(t, n), n, dims) == t).all()
            np.testing.assert_allclose(
                matricize(full, n),
                (mats[n] * weights) @ factors_khatri_rao(mats, skip=n).T,
                rtol=1e-10, atol=1e-10)

        tilde_rank = int(rng.integers(1, 4))
        tilde = KruskalTensor(
            [rng.standard_normal((d, tilde_rank)) for d in dims],
            rng.standard_normal(tilde_rank))
        surrogate = reconstruct(tilde)
        np.testing.assert_allclose(core_linear_term_lra(
                                       tilde.weights,
                                       [t.T @ u for t, u in zip(tilde.factors, mats)]),
                                   core_linear_term(surrogate, mats),
                                   rtol=1e-10, atol=1e-10)
        for n in range(order):
            np.testing.assert_allclose(
                factor_linear_term_lra(tilde.factors[n] * tilde.weights,
                                       [tilde.factors[m].T @ mats[m]
                                        for m in range(order) if m != n]),
                factor_linear_term(surrogate, mats, n),
                rtol=1e-10, atol=1e-10)


# ---------------------------------------------------------------------------


def test_noiseless_exact_recovery_rate():
    """Noiseless 3-block 16x18x20 rank-9 problem with 4 shared columns per
    mode: with default settings (tol 1e-8, 1000 iterations max), at least
    7 of 10 seeded runs must reach RelErr < 1e-3 and mean per-mode PI < 0.05.
    The run seed drives both the data draw and the initialization."""
    outcomes = []
    for seed in range(10):
        problem, truth = coupled_problem(SynthSpec(
            n_blocks=3, size_factor=2, snr_db=None, seed=seed,
            coupled=(4, 4, 4)))
        result = tracked_solve(problem, SolverOptions(seed=seed),
                               f"recovery seed {seed}")
        err = result.trace[-1].rel_err
        pi = float(np.mean(pi_per_mode(result.factors, truth)))
        outcomes.append((seed, err, pi, err < 1e-3 and pi < 0.05))
    wins = sum(ok for *_, ok in outcomes)
    table = "\n".join(
        f"  seed {s}: relerr={e:.2e} pi={p:.4f} "
        + ("recovered" if ok else "stuck")
        for s, e, p, ok in outcomes)
    assert wins >= 7, f"exact recovery in {wins}/10 runs, need >= 7:\n{table}"


# ---------------------------------------------------------------------------


def test_lra_preserves_fit_on_noisy_problems():
    """Paired raw/compressed runs on the 10-block 16x18x20 problem at 20 dB:
    mean |TenFit difference| < 0.02 over 5 shared seeds."""
    diffs = []
    for seed in range(5):
        fits = {}
        for mode in ("full", "lra"):
            problem, _ = coupled_problem(
                SynthSpec(n_blocks=10, size_factor=2, snr_db=20.0, seed=seed),
                mode=mode)
            result = tracked_solve(problem, SolverOptions(seed=seed),
                                   f"fidelity {mode} seed {seed}")
            fits[mode] = 1.0 - result.trace[-1].rel_err
        diffs.append(abs(fits["full"] - fits["lra"]))
    assert float(np.mean(diffs)) < 0.02, f"TenFit gaps by seed: {diffs}"


# ---------------------------------------------------------------------------


def test_compressed_iterations_get_relatively_cheaper_with_size():
    """Single-threaded per-iteration time ratio raw/compressed is > 1 at
    size factor 4 and strictly larger at size factor 8 (30 fixed iterations,
    compression time excluded from the per-iteration figure).  The modes
    run alternately, three times each, and each keeps its fastest run, so
    one slow run of either mode does not decide the comparison."""
    ratios = {}
    with limit_blas_threads(1):
        for n in (4, 8):
            spec = SynthSpec(n_blocks=10, size_factor=n, snr_db=20.0, seed=0)
            problems = {mode: coupled_problem(spec, mode=mode)[0]
                        for mode in ("full", "lra")}
            per_iter = dict.fromkeys(problems, np.inf)
            for run in range(3):
                for mode, problem in problems.items():
                    result = tracked_solve(
                        problem, SolverOptions(max_iter=30, tol=1e-300, seed=0),
                        f"timing {mode} n={n} run {run}")
                    per_iter[mode] = min(per_iter[mode],
                                         result.solve_seconds / result.n_iter)
            ratios[n] = per_iter["full"] / per_iter["lra"]
    assert ratios[4] > 1.0, f"per-iteration time ratios: {ratios}"
    assert ratios[8] > ratios[4], f"per-iteration time ratios: {ratios}"


# ---------------------------------------------------------------------------


def test_core_weight_updates_improve_recovery():
    """Across 5 noiseless seeds of the 3-block 16x18x20 problem, mean PI
    with core-weight updates <= mean PI with the core frozen at ones, for
    both the raw and the compressed solver."""
    means = {}
    for mode in ("full", "lra"):
        for update_core in (True, False):
            pis = []
            for seed in range(5):
                problem, truth = coupled_problem(
                    SynthSpec(n_blocks=3, size_factor=2, snr_db=None,
                              seed=seed, coupled=(4, 4, 4)),
                    mode=mode, update_core=update_core)
                tag = f"{mode}{'' if update_core else '-nc'} seed {seed}"
                result = tracked_solve(problem, SolverOptions(seed=seed),
                                       f"ordering {tag}")
                pis.append(float(np.mean(pi_per_mode(result.factors, truth))))
            means[mode, update_core] = float(np.mean(pis))
    assert means["full", True] <= means["full", False], means
    assert means["lra", True] <= means["lra", False], means


# ---------------------------------------------------------------------------


def test_metric_conventions_hold_exactly():
    """PI of a permuted, column-scaled copy is 0 within 1e-10; TenFit and
    RelErr sum to 1 within 1e-14; MCC of an exact template match is 1;
    PSNR at squared error equal to the squared peak is 0 dB."""
    rng = np.random.default_rng(99)

    truth = rng.random((8, 5)) + 0.1
    perm = rng.permutation(5)
    scales = rng.uniform(0.5, 3.0, size=5) * rng.choice([-1.0, 1.0], size=5)
    assert performance_index(truth[:, perm] * scales, truth) < 1e-10

    tensors = [rng.random((4, 5, 3)) for _ in range(3)]
    recovered = [t + 0.1 * rng.standard_normal(t.shape) for t in tensors]
    total = ten_fit(tensors, recovered) + rel_err(tensors, recovered)
    assert abs(total - 1.0) < 1e-14

    templates = [rng.random(40), rng.random(25)]
    candidates = [np.column_stack([rng.random(40), templates[0]]),
                  np.column_stack([rng.random(25), templates[1]])]
    assert mcc(templates, candidates) == pytest.approx(1.0, abs=1e-12)

    original = rng.random((10, 10)) * 50.0
    peak = 60.0
    assert psnr(original, original + peak, peak=peak) == pytest.approx(
        0.0, abs=1e-12)


# ---------------------------------------------------------------------------


def test_coupled_solve_denoises_salt_and_pepper():
    """Five 32x32x16 blocks from rank-12 truth (6 shared columns per mode),
    corrupted at salt-and-pepper density 0.1: the coupled reconstruction
    beats the corrupted input's PSNR by >= 3 dB, averaged over 3 seeds."""
    gains = []
    for seed in range(3):
        clean, _ = generate(SynthSpec(n_blocks=5, dims=(32, 32, 16), rank=12,
                                      coupled=(6, 6, 6), snr_db=None,
                                      seed=seed))
        corrupted = [add_noise(t, kind="saltpepper", density=0.1,
                               seed=1000 + 10 * seed + s)
                     for s, t in enumerate(clean.tensors)]
        problem = CoupledProblem(corrupted, clean.ranks, clean.coupled_counts)
        result = tracked_solve(problem, SolverOptions(seed=seed),
                               f"denoise seed {seed}")
        for t_clean, t_bad, block in zip(clean.tensors, corrupted,
                                         result.factors.blocks):
            peak = float(t_clean.max())
            gains.append(psnr(t_clean, reconstruct(block), peak=peak)
                         - psnr(t_clean, t_bad, peak=peak))
    mean_gain = float(np.mean(gains))
    assert mean_gain >= 3.0, f"mean PSNR gain {mean_gain:.2f} dB, need 3"


# ---------------------------------------------------------------------------
# declared last on purpose: sees the histories of every run above


def test_objective_never_increases_across_all_runs():
    """Every objective history this module produced is non-increasing within
    1e-10 relative — the restart safeguard at work.  Starts with its own
    noisy run chosen to trigger restarts, then sweeps the registry."""
    problem, _ = coupled_problem(SynthSpec(n_blocks=2, size_factor=1,
                                           snr_db=10.0, seed=4))
    result = tracked_solve(problem, SolverOptions(seed=4), "restart probe")
    assert result.n_restarts > 0

    assert HISTORIES
    for label, history in HISTORIES:
        arr = np.asarray(history)
        rise = arr[1:] - arr[:-1]
        allowed = 1e-10 * np.maximum(np.abs(arr[:-1]), 1e-300)
        bad = np.flatnonzero(rise > allowed)
        assert bad.size == 0, (
            f"{label}: objective rose at iteration(s) {(bad + 1)[:5]}"
        )
