"""Kruskal model containers and reconstruction against a naive rank-1 oracle."""

import numpy as np
import pytest

from concpd.kruskal import (
    CoupledFactorSet,
    KruskalTensor,
    normalize_columns,
    reconstruct,
    residual_sq,
)


def reconstruct_oracle(factors, weights):
    """Sum of weighted outer products, one rank-1 term at a time."""
    dims = tuple(f.shape[0] for f in factors)
    out = np.zeros(dims)
    for j in range(weights.size):
        term = weights[j]
        for f in factors:
            term = np.multiply.outer(term, f[:, j])
        out += term
    return out


def random_model(rng, dims, rank):
    return KruskalTensor([rng.random((d, rank)) for d in dims], rng.random(rank))


# ---------------------------------------------------------------------------
# KruskalTensor basics
# ---------------------------------------------------------------------------


def test_kruskal_properties():
    rng = np.random.default_rng(0)
    k = random_model(rng, (4, 3, 5), 2)
    assert k.order == 3
    assert k.rank == 2
    assert k.dims == (4, 3, 5)
    assert k.is_nonnegative()


def test_kruskal_rank_mismatch():
    with pytest.raises(ValueError):
        KruskalTensor([np.zeros((3, 2)), np.zeros((4, 3))], np.zeros(2))
    with pytest.raises(ValueError):
        KruskalTensor([np.zeros((3, 2)), np.zeros((4, 2))], np.zeros(3))


def test_kruskal_copy_is_deep():
    rng = np.random.default_rng(1)
    k = random_model(rng, (3, 3), 2)
    c = k.copy()
    c.factors[0][0, 0] += 1.0
    c.weights[0] += 1.0
    assert k.factors[0][0, 0] != c.factors[0][0, 0]
    assert k.weights[0] != c.weights[0]


def test_is_nonnegative_detects_sign():
    k = KruskalTensor([np.ones((2, 1)), np.ones((3, 1))], np.ones(1))
    assert k.is_nonnegative()
    k.factors[0][0, 0] = -0.5
    assert not k.is_nonnegative()


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dims,rank", [((3, 4), 2), ((2, 3, 4), 3), ((2, 2, 3, 2), 2)])
def test_reconstruct_matches_oracle(dims, rank):
    rng = np.random.default_rng(2)
    k = random_model(rng, dims, rank)
    assert np.allclose(reconstruct(k), reconstruct_oracle(k.factors, k.weights), atol=1e-12)


@pytest.mark.parametrize("dims", [(4, 5), (3, 4, 5), (2, 3, 4, 3), (2, 3, 2, 3, 2)])
def test_residual_sq_matches_the_reconstructed_residual(dims):
    rng = np.random.default_rng(len(dims))
    k = random_model(rng, dims, 3)
    t = rng.random(dims)
    want = np.linalg.norm(t - reconstruct(k)) ** 2
    assert residual_sq(t, k) == pytest.approx(want, rel=1e-12)
    assert residual_sq(np.asfortranarray(t), k) == pytest.approx(want, rel=1e-12)


def test_reconstruct_rank_one():
    a = np.array([[1.0], [2.0]])
    b = np.array([[3.0], [5.0]])
    k = KruskalTensor([a, b], np.array([2.0]))
    assert np.allclose(reconstruct(k), 2.0 * np.outer(a, b))


# ---------------------------------------------------------------------------
# column normalization
# ---------------------------------------------------------------------------


def test_normalize_columns_preserves_reconstruction():
    rng = np.random.default_rng(3)
    k = random_model(rng, (4, 3, 5), 3)
    n = normalize_columns(k)
    for f in n.factors:
        assert np.allclose(np.linalg.norm(f, axis=0), 1.0, atol=1e-12)
    assert np.allclose(reconstruct(n), reconstruct(k), atol=1e-12)


def test_normalize_columns_zero_column_reports_location():
    k = KruskalTensor([np.ones((3, 2)), np.ones((4, 2))], np.ones(2))
    k.factors[1][:, 1] = 0.0
    with pytest.raises(ValueError, match="column 1 in mode-1"):
        normalize_columns(k)


# ---------------------------------------------------------------------------
# coupled sets
# ---------------------------------------------------------------------------


def coupled_set(rng, dims_list, rank, counts):
    blocks = [random_model(rng, dims, rank) for dims in dims_list]
    for n, c in enumerate(counts):
        for b in blocks[1:]:
            if c:
                b.factors[n][:, :c] = blocks[0].factors[n][:, :c]
    return CoupledFactorSet(blocks, list(counts))


def test_coupled_set_validate_passes():
    rng = np.random.default_rng(4)
    cs = coupled_set(rng, [(4, 3, 5), (4, 3, 6)], 3, (2, 2, 0))
    cs.validate()
    assert cs.n_blocks == 2
    assert cs.order == 3


def test_coupled_set_validate_flags_divergent_columns():
    rng = np.random.default_rng(5)
    cs = coupled_set(rng, [(4, 3, 5), (4, 3, 6)], 3, (2, 2, 0))
    cs.blocks[1].factors[0][0, 0] += 1e-3
    with pytest.raises(ValueError, match="mode 0 .* block 1"):
        cs.validate()


def test_coupled_set_validate_flags_row_mismatch():
    rng = np.random.default_rng(6)
    blocks = [random_model(rng, (4, 3), 2), random_model(rng, (5, 3), 2)]
    cs = CoupledFactorSet(blocks, [1, 0])
    with pytest.raises(ValueError, match="rows"):
        cs.validate()


def test_coupled_set_count_bounds():
    rng = np.random.default_rng(7)
    cs = coupled_set(rng, [(4, 3), (4, 3)], 2, (0, 0))
    cs.coupled_counts = [3, 0]
    with pytest.raises(ValueError, match="coupled count"):
        cs.validate()


def test_coupled_set_counts_length_checked():
    rng = np.random.default_rng(8)
    with pytest.raises(ValueError):
        CoupledFactorSet([random_model(rng, (3, 4), 2)], [1])
