"""Generator tests: size rules, determinism, noise calibration."""

import numpy as np
import pytest

from concpd.kruskal import reconstruct
from concpd.solver import CoupledProblem
from concpd.synth import SynthSpec, generate, round_half_away


def test_round_half_away_from_zero():
    assert round_half_away(4.5) == 5
    assert round_half_away(4.4) == 4
    assert round_half_away(2.25) == 2
    assert round_half_away(-4.5) == -5
    assert round_half_away(0.0) == 0


def test_size_rules_at_factor_two():
    dims, rank, coupled = SynthSpec(size_factor=2).resolve()
    assert dims == (16, 18, 20)
    assert rank == 9
    assert coupled == (5, 5, 5)


def test_size_rules_at_factor_one():
    dims, rank, coupled = SynthSpec(size_factor=1).resolve()
    assert dims == (8, 9, 10)
    assert rank == 5  # round(4.5) away from zero
    assert coupled == (2, 2, 2)  # round(2.25)


def test_generate_is_byte_deterministic():
    spec = SynthSpec(n_blocks=3, size_factor=1, seed=42)
    prob_a, truth_a = generate(spec)
    prob_b, truth_b = generate(SynthSpec(n_blocks=3, size_factor=1, seed=42))
    for ta, tb in zip(prob_a.tensors, prob_b.tensors):
        assert ta.tobytes() == tb.tobytes()
    for ka, kb in zip(truth_a.blocks, truth_b.blocks):
        assert ka.weights.tobytes() == kb.weights.tobytes()
        for fa, fb in zip(ka.factors, kb.factors):
            assert fa.tobytes() == fb.tobytes()
    _, truth_c = generate(SynthSpec(n_blocks=3, size_factor=1, seed=43))
    assert not np.array_equal(truth_a.blocks[0].factors[0],
                              truth_c.blocks[0].factors[0])


def test_noiseless_flag_returns_exact_reconstruction():
    for snr in (None, np.inf):
        prob, truth = generate(SynthSpec(n_blocks=2, size_factor=1,
                                         snr_db=snr, seed=1))
        for t, k in zip(prob.tensors, truth.blocks):
            np.testing.assert_array_equal(t, reconstruct(k))


def test_noisy_output_is_clipped_nonnegative_and_differs():
    prob, truth = generate(SynthSpec(n_blocks=2, size_factor=1, seed=2))
    for t, k in zip(prob.tensors, truth.blocks):
        assert t.min() >= 0.0
        assert not np.array_equal(t, reconstruct(k))


def test_gaussian_noise_snr_calibration():
    prob, truth = generate(SynthSpec(n_blocks=2, size_factor=4, seed=3))
    for t, k in zip(prob.tensors, truth.blocks):
        clean = reconstruct(k)
        p_s = np.mean(clean * clean)
        p_n = np.mean((t - clean) ** 2)
        measured = 10 * np.log10(p_s / p_n)
        assert abs(measured - 20.0) < 0.5


def test_truth_structure():
    prob, truth = generate(SynthSpec(n_blocks=4, size_factor=1, seed=4))
    dims, rank, counts = SynthSpec(n_blocks=4, size_factor=1).resolve()
    assert prob.ranks == [rank] * 4
    assert prob.coupled_counts == list(counts)
    for k in truth.blocks:
        assert k.dims == dims
        assert ((0.5 <= k.weights) & (k.weights < 1.5)).all()
        for n, f in enumerate(k.factors):
            assert ((0.0 <= f) & (f < 1.0)).all()
            np.testing.assert_array_equal(
                f[:, : counts[n]], truth.blocks[0].factors[n][:, : counts[n]]
            )


def test_overrides_are_respected():
    spec = SynthSpec(n_blocks=3, snr_db=None, seed=5,
                     dims=(16, 18, 20), rank=9, coupled=(4, 4, 4))
    prob, truth = generate(spec)
    assert prob.tensors[0].shape == (16, 18, 20)
    assert prob.ranks == [9, 9, 9]
    assert prob.coupled_counts == [4, 4, 4]
    assert truth.blocks[0].rank == 9


def test_spec_validation():
    with pytest.raises(ValueError, match="n_blocks"):
        SynthSpec(n_blocks=0)
    with pytest.raises(ValueError, match="size_factor"):
        SynthSpec(size_factor=0)
    with pytest.raises(ValueError, match="coupled counts"):
        SynthSpec(rank=3, coupled=(4, 4, 4))
    with pytest.raises(ValueError, match="rank"):
        SynthSpec(rank=0)
    with pytest.raises(ValueError, match="dims"):
        SynthSpec(dims=(5, 5))


def test_generated_tensors_are_views_of_one_stack():
    problem, _ = generate(SynthSpec(n_blocks=4, size_factor=1, seed=3))
    stack = problem.tensors[0].base
    assert stack.shape == (4, 8, 9, 10) and stack.flags.c_contiguous
    assert all(np.shares_memory(t, stack) for t in problem.tensors)
    for mode in ("full", "lra"):
        again = CoupledProblem(problem.tensors, problem.ranks,
                               problem.coupled_counts, mode=mode)
        assert all(np.shares_memory(t, stack) for t in again.tensors)
