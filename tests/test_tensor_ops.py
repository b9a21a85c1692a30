"""Tensor algebra primitives against brute-force index-arithmetic oracles."""

import itertools

import numpy as np
import pytest

from concpd.tensor_ops import (
    factors_khatri_rao,
    hadamard_gram,
    khatri_rao,
    matricize,
    mttkrp,
    mttkrp_partial,
    refold,
    spectral_norm,
    unvectorize,
    vectorize,
)

# ---------------------------------------------------------------------------
# oracles: independent element-by-element implementations
# ---------------------------------------------------------------------------


def vec_offset(idx, dims):
    """Linear offset of a multi-index with the first index varying fastest."""
    off, stride = 0, 1
    for i, d in zip(idx, dims):
        off += i * stride
        stride *= d
    return off


def matricize_oracle(t, mode):
    """Element-wise mode-n unfolding: row i_n, column from the remaining
    indices in ascending mode order, earliest fastest."""
    dims = t.shape
    rest = [d for m, d in enumerate(dims) if m != mode]
    out = np.zeros((dims[mode], int(np.prod(rest))))
    for idx in itertools.product(*(range(d) for d in dims)):
        ridx = tuple(i for m, i in enumerate(idx) if m != mode)
        out[idx[mode], vec_offset(ridx, rest)] = t[idx]
    return out


def khatri_rao_oracle(a, b):
    """Column-wise Kronecker, first argument's index slowest."""
    cols = [np.kron(a[:, r], b[:, r]) for r in range(a.shape[1])]
    return np.stack(cols, axis=1)


# ---------------------------------------------------------------------------
# vectorize / unvectorize
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dims", [(3,), (2, 3), (2, 3, 4), (3, 2, 4, 2)])
def test_vectorize_offsets(dims):
    rng = np.random.default_rng(0)
    t = rng.standard_normal(dims)
    v = vectorize(t)
    assert v.shape == (t.size,)
    for idx in itertools.product(*(range(d) for d in dims)):
        assert v[vec_offset(idx, dims)] == t[idx]


def test_vectorize_spec_order():
    # 2 x 2: offsets (0,0)->0, (1,0)->1, (0,1)->2, (1,1)->3
    t = np.array([[1.0, 3.0], [2.0, 4.0]])
    assert vectorize(t).tolist() == [1.0, 2.0, 3.0, 4.0]


@pytest.mark.parametrize("dims", [(4,), (3, 5), (2, 3, 4), (2, 2, 3, 2)])
def test_unvectorize_round_trip(dims):
    rng = np.random.default_rng(1)
    t = rng.standard_normal(dims)
    assert np.array_equal(unvectorize(vectorize(t), dims), t)


# ---------------------------------------------------------------------------
# matricize / refold
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dims", [(2, 3), (2, 3, 4), (3, 2, 4, 2)])
def test_matricize_matches_oracle(dims):
    rng = np.random.default_rng(2)
    t = rng.standard_normal(dims)
    for mode in range(len(dims)):
        got = matricize(t, mode)
        want = matricize_oracle(t, mode)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_matricize_mode_out_of_range():
    t = np.zeros((2, 3, 4))
    with pytest.raises(ValueError):
        matricize(t, 3)
    with pytest.raises(ValueError):
        matricize(t, -1)


@pytest.mark.parametrize("dims", [(5,), (4, 3), (2, 5, 3), (3, 2, 2, 4)])
def test_refold_round_trip(dims):
    rng = np.random.default_rng(3)
    t = rng.standard_normal(dims)
    for mode in range(len(dims)):
        assert np.array_equal(refold(matricize(t, mode), mode, dims), t)


def test_vectorize_is_mode0_matricize_stacked():
    # columns of the mode-0 unfolding laid end to end give the vectorization
    rng = np.random.default_rng(4)
    t = rng.standard_normal((3, 4, 2))
    m = matricize(t, 0)
    assert np.array_equal(m.reshape(-1, order="F"), vectorize(t))


# ---------------------------------------------------------------------------
# Khatri-Rao
# ---------------------------------------------------------------------------


def test_khatri_rao_worked_example():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    want = np.array([[0.0, 2.0], [1.0, 0.0], [0.0, 4.0], [3.0, 0.0]])
    assert np.array_equal(khatri_rao([a, b]), want)


@pytest.mark.parametrize("rows", [(2, 3), (4, 2, 3), (2, 2, 2, 3)])
def test_khatri_rao_matches_kron_columns(rows):
    rng = np.random.default_rng(5)
    r = 4
    mats = [rng.standard_normal((m, r)) for m in rows]
    got = khatri_rao(mats)
    want = mats[0]
    for m in mats[1:]:
        want = khatri_rao_oracle(want, m)
    assert np.allclose(got, want, rtol=0.0, atol=0.0)
    assert got.shape == (int(np.prod(rows)), r)


def test_khatri_rao_column_mismatch():
    with pytest.raises(ValueError):
        khatri_rao([np.zeros((2, 3)), np.zeros((4, 2))])


def test_factors_khatri_rao_order_and_skip():
    rng = np.random.default_rng(6)
    factors = [rng.standard_normal((d, 3)) for d in (2, 3, 4)]
    # descending mode order: U3 (x) U2 (x) U1
    assert np.array_equal(
        factors_khatri_rao(factors), khatri_rao([factors[2], factors[1], factors[0]])
    )
    assert np.array_equal(
        factors_khatri_rao(factors, skip=1), khatri_rao([factors[2], factors[0]])
    )


def test_factors_khatri_rao_vectorize_consistency():
    # U_kr @ lam reproduces the vectorized rank-1 sum
    rng = np.random.default_rng(7)
    dims, r = (3, 4, 2), 3
    factors = [rng.random((d, r)) for d in dims]
    lam = rng.random(r)
    dense = np.zeros(dims)
    for j in range(r):
        dense += lam[j] * np.einsum(
            "i,j,k->ijk", factors[0][:, j], factors[1][:, j], factors[2][:, j]
        )
    assert np.allclose(factors_khatri_rao(factors) @ lam, vectorize(dense), atol=1e-12)


def test_khatri_rao_transpose_product_identity():
    # kr(A, B).T @ kr(C, D) == (A.T @ C) * (B.T @ D)
    rng = np.random.default_rng(8)
    a, c = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
    b, d = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
    lhs = khatri_rao([a, b]).T @ khatri_rao([c, d])
    rhs = (a.T @ c) * (b.T @ d)
    assert np.allclose(lhs, rhs, atol=1e-12)


# ---------------------------------------------------------------------------
# MTTKRP on the C-order view
# ---------------------------------------------------------------------------


def layouts(dims, seed):
    """The same values as a C-contiguous, an F-contiguous and a strided array."""
    rng = np.random.default_rng(seed)
    t = rng.standard_normal(dims)
    wide = np.zeros(tuple(2 * d for d in dims))
    strided = wide[tuple(slice(None, None, 2) for _ in dims)]
    strided[...] = t
    return {"C": t, "F": np.asfortranarray(t), "strided": strided}


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("rank", [1, 5])
@pytest.mark.parametrize("dims", [(4, 3), (3, 4, 5), (2, 3, 4, 3), (2, 3, 2, 3, 2)])
def test_mttkrp_matches_unfolded_product(dims, rank, layout):
    t = layouts(dims, seed=14)[layout]
    rng = np.random.default_rng(15)
    factors = [rng.standard_normal((d, rank)) for d in dims]
    for mode in range(len(dims)):
        want = matricize(t, mode) @ factors_khatri_rao(factors, skip=mode)
        got = mttkrp(t, factors, mode)
        assert got.shape == (dims[mode], rank)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("dims", [(4, 3), (3, 4, 5), (2, 3, 4, 3), (2, 3, 2, 3, 2)])
def test_mttkrp_reused_partial_equals_fresh(dims):
    # a sweep computes the partial once after the first factor's update and
    # then updates the later modes one by one
    rng = np.random.default_rng(16)
    t = rng.standard_normal(dims)
    factors = [rng.standard_normal((d, 5)) for d in dims]
    partial = mttkrp_partial(t, factors[0])
    assert partial.shape == dims[1:] + (5,)
    for mode in range(1, len(dims)):
        reused = mttkrp(t, factors, mode, partial)
        assert np.array_equal(reused, mttkrp(t, factors, mode))
        factors[mode] = rng.standard_normal((dims[mode], 5))


@pytest.mark.parametrize("dims", [(4, 3), (3, 4, 5), (2, 3, 4, 3)])
def test_stacked_mttkrp_equals_each_slice_bit_for_bit(dims):
    # the solver contracts a group's tensor stack in one batched call; every
    # slice must be the single-tensor call's result exactly
    rng = np.random.default_rng(17)
    t = rng.random((3,) + dims)
    factors = [rng.random((3, d, 5)) for d in dims]
    partial = mttkrp_partial(t, factors[0])
    assert partial.shape == (3,) + dims[1:] + (5,)
    for j in range(3):
        assert np.array_equal(partial[j], mttkrp_partial(t[j], factors[0][j]))
    for mode in range(len(dims)):
        for got in (mttkrp(t, factors, mode), mttkrp(t, factors, mode, partial)):
            assert got.shape == (3, dims[mode], 5)
            for j in range(3):
                assert np.array_equal(got[j], mttkrp(t[j], [f[j] for f in factors], mode))


def test_mttkrp_rejects_bad_mode_and_factor_count():
    t = np.zeros((2, 3, 4))
    factors = [np.ones((d, 2)) for d in (2, 3, 4)]
    with pytest.raises(ValueError, match="out of range"):
        mttkrp(t, factors, 3)
    with pytest.raises(ValueError, match="factors"):
        mttkrp(t, factors[:2], 0)
    with pytest.raises(ValueError, match="order 2"):
        mttkrp(np.zeros(3), [np.ones((3, 2))], 0)


# ---------------------------------------------------------------------------
# Hadamard products of Gram matrices
# ---------------------------------------------------------------------------


def test_hadamard_gram_full_and_skip():
    rng = np.random.default_rng(9)
    mats = [rng.standard_normal((d, 3)) for d in (4, 5, 6)]
    want = (mats[0].T @ mats[0]) * (mats[1].T @ mats[1]) * (mats[2].T @ mats[2])
    assert np.allclose(hadamard_gram(mats), want, atol=1e-12)
    want_skip = (mats[0].T @ mats[0]) * (mats[2].T @ mats[2])
    assert np.allclose(hadamard_gram(mats, skip=1), want_skip, atol=1e-12)


def test_hadamard_gram_of_stacks_is_taken_slice_by_slice():
    rng = np.random.default_rng(10)
    stacks = [rng.standard_normal((3, d, 4)) for d in (4, 5, 6)]
    got = hadamard_gram(stacks)
    assert got.shape == (3, 4, 4)
    for s in range(3):
        np.testing.assert_array_equal(got[s], hadamard_gram([a[s] for a in stacks]))
        np.testing.assert_array_equal(hadamard_gram(stacks, skip=1)[s],
                                      hadamard_gram([a[s] for a in stacks], skip=1))


def test_hadamard_gram_is_khatri_rao_gram():
    rng = np.random.default_rng(11)
    mats = [rng.standard_normal((d, 4)) for d in (3, 4, 2)]
    kr = khatri_rao(list(reversed(mats)))
    assert np.allclose(hadamard_gram(mats), kr.T @ kr, atol=1e-12)


# ---------------------------------------------------------------------------
# spectral norm vs. independent references
# ---------------------------------------------------------------------------


def dense_norm(g):
    """The largest eigenvalue of each symmetric matrix, from LAPACK."""
    return np.linalg.eigvalsh(g)[..., -1]


def carried_norm(g, calls=50):
    """The Perron bound on ``g`` after ``calls`` calls carrying one start."""
    start = np.ones(g.shape[:-1])
    for _ in range(calls):
        got = spectral_norm(g, start)
        assert np.all(got >= dense_norm(g) * (1.0 - 1e-13))
    return got


def test_spectral_norm_psd_sweep():
    rng = np.random.default_rng(12)
    for _ in range(20):
        r = rng.integers(1, 9)
        a = rng.random((r + 2, r))  # nonnegative entries, as the bound needs
        g = a.T @ a
        want = float(np.linalg.norm(g, 2))
        assert dense_norm(g) == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert carried_norm(g) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_spectral_norm_diagonal():
    g = np.diag([3.0, 7.0, 1.0])
    assert spectral_norm(g, np.ones(3)) == pytest.approx(7.0, rel=1e-12)


def test_spectral_norm_zero_matrix():
    assert spectral_norm(np.zeros((4, 4)), np.ones(4)) == 0.0


def test_spectral_norm_skewed_eigenbasis():
    # a start all but orthogonal to the leading eigenvector still bounds it
    g = np.diag([1.0, 5.0])
    assert spectral_norm(g, np.array([1.0, 1e-12])) == pytest.approx(5.0, rel=1e-12)


def test_spectral_norm_rank_one():
    v = np.array([1.0, 2.0, 2.0])
    g = np.outer(v, v)
    assert spectral_norm(g, np.ones(3)) == pytest.approx(9.0, rel=1e-12)


def test_spectral_norm_stack_matches_each_matrix_bitwise():
    rng = np.random.default_rng(13)
    a = rng.random((5, 6, 4))
    stack = a @ a.transpose(0, 2, 1)
    stack[2] = 0.0
    start = rng.uniform(0.1, 1.0, (5, 6))
    alone = start.copy()
    got = spectral_norm(stack, start)
    assert got.shape == (5,)
    assert got[2] == 0.0
    for g, norm, s in zip(stack, got, alone):
        assert norm == spectral_norm(g, s)
    np.testing.assert_array_equal(start, alone)


def test_spectral_norm_rejects_nonsquare():
    with pytest.raises(ValueError, match="square"):
        spectral_norm(np.ones((2, 3)), np.ones(2))


# ---------------------------------------------------------------------------
# warm-started spectral norm: an upper bound, whatever the start
# ---------------------------------------------------------------------------


def gram_surrogates(seed, dead=(), zero_weights=(), size=4, dims=(5, 7, 6), rank=6):
    """The stacks a solver takes step bounds of, from nonnegative factor
    stacks ``(size, I_n, rank)``: the Hadamard product of all grams, then per
    mode that of the other grams times ``lam lam^T``.  Columns ``dead`` of
    the first mode's factors and weights ``zero_weights`` are 0."""
    rng = np.random.default_rng(seed)
    facs = [rng.random((size, d, rank)) ** 3 for d in dims]
    facs[0][:, :, list(dead)] = 0.0
    lam = rng.random((size, rank))
    lam[:, list(zero_weights)] = 0.0
    outer = lam[:, :, None] * lam[:, None, :]
    return [hadamard_gram(facs)] + [hadamard_gram(facs, skip=n) * outer
                                    for n in range(len(dims))]


def assert_upper_bound(got, g):
    want = np.linalg.eigvalsh(g)[..., -1]
    assert np.all(got >= want * (1.0 - 1e-13)), f"{got} below the norms {want}"


@pytest.mark.parametrize("dead,zero_weights", [((), ()), ((), (1, 4)), ((0, 3), ()),
                                               ((2,), (2, 5))],
                         ids=["live", "zero-weights", "dead-columns", "both"])
def test_warm_spectral_norm_bounds_the_norm_from_above(dead, zero_weights):
    for seed in range(6):
        for g in gram_surrogates(seed, dead, zero_weights):
            start = np.random.default_rng(seed).uniform(0.1, 1.0, g.shape[:-1])
            for _ in range(3):  # the start carried from call to call
                got = spectral_norm(g, start)
                assert got.shape == g.shape[:-2]
                assert_upper_bound(got, g)
                assert np.all(start > 0.0) and np.all(np.isfinite(start))


def test_warm_spectral_norm_of_a_zero_matrix_is_zero_and_keeps_its_start():
    g = gram_surrogates(1)[0]
    g[2] = 0.0
    start = np.random.default_rng(1).uniform(0.1, 1.0, g.shape[:-1])
    kept = start[2].copy()
    got = spectral_norm(g, start)
    assert got[2] == 0.0
    np.testing.assert_array_equal(start[2], kept)
    assert_upper_bound(got, g)
    single = np.ones(3)
    assert spectral_norm(np.zeros((3, 3)), single) == 0.0
    np.testing.assert_array_equal(single, np.ones(3))
    matrix = g[0]
    assert isinstance(spectral_norm(matrix, np.ones(6)), float)
    assert_upper_bound(spectral_norm(matrix, np.ones(6)), matrix)


def test_warm_spectral_norm_when_a_zero_row_comes_alive():
    # a dead column leaves zero rows; the start must still bound the norm
    # once the column carries weight again
    for seed in range(4):
        for dead, alive in zip(gram_surrogates(seed, dead=(2,), zero_weights=(4,)),
                               gram_surrogates(seed)):
            start = np.ones(dead.shape[:-1])
            for _ in range(20):
                assert_upper_bound(spectral_norm(dead, start), dead)
            assert np.all(start > 0.0)
            assert_upper_bound(spectral_norm(alive, start), alive)


def test_warm_spectral_norm_converges_to_the_norm():
    for g in gram_surrogates(3, dead=(1,)) + gram_surrogates(4, zero_weights=(0, 5)):
        start = np.ones(g.shape[:-1])
        for _ in range(100):
            got = spectral_norm(g, start)
            assert_upper_bound(got, g)
        np.testing.assert_allclose(got, np.linalg.eigvalsh(g)[:, -1], rtol=1e-11)
