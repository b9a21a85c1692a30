"""Central-difference checks for the solver's gradient building blocks.

The oracle below evaluates the half-squared residual objective directly and
differences it entry by entry; every analytic gradient form (full-tensor and
compressed, core weights, individual factor columns, shared factor columns)
has to agree to high relative accuracy on randomized coupled instances.
"""

import numpy as np
import pytest

from concpd.kruskal import KruskalTensor, reconstruct
from concpd.solver import (
    core_gradient,
    core_linear_term,
    core_linear_term_lra,
    factor_gradient,
    factor_linear_term_lra,
    factor_surrogate,
    objective,
)
from concpd.tensor_ops import hadamard_gram, mttkrp

N_MODES = 3


def random_instance(i):
    """Coupled instance #i: data tensors, model blocks, coupled counts."""
    rng = np.random.default_rng(1000 + i)
    dims = tuple(int(rng.integers(2, 7)) for _ in range(N_MODES))
    rank = int(rng.integers(1, 5))
    n_blocks = int(rng.integers(1, 4))
    if i % 4 == 0:
        counts = [0] * N_MODES  # fully uncoupled
    elif i % 4 == 1:
        counts = [rank] * N_MODES  # fully shared
    else:
        counts = [int(rng.integers(0, rank + 1)) for _ in range(N_MODES)]
    common = [rng.random((dims[n], counts[n])) for n in range(N_MODES)]
    blocks = []
    tensors = []
    for _ in range(n_blocks):
        facs = [
            np.hstack([common[n], rng.random((dims[n], rank - counts[n]))])
            for n in range(N_MODES)
        ]
        blocks.append(KruskalTensor(facs, rng.uniform(0.5, 1.5, rank)))
        # data deliberately unrelated to the model so gradients are generic
        tensors.append(rng.random(dims))
    return tensors, blocks, counts


def compressions_for(tensors, i):
    """Stand-in unconstrained compressions (signed factors and weights)."""
    rng = np.random.default_rng(5000 + i)
    tilde = []
    for t in tensors:
        r = int(rng.integers(1, 4))
        facs = [rng.standard_normal((d, r)) for d in t.shape]
        tilde.append(KruskalTensor(facs, rng.standard_normal(r)))
    return tilde


def rel_err(num, ref):
    scale = max(float(np.linalg.norm(ref)), 1e-12)
    return float(np.linalg.norm(num - ref)) / scale


def fd_against(eval_obj, read, write, shape, h_base=1e-5):
    """Central finite difference of ``eval_obj`` w.r.t. the variable exposed
    by ``read``/``write`` (a flat-indexed view with the given shape)."""
    x0 = read().copy()
    g = np.zeros(x0.size)
    flat = x0.ravel()
    for j in range(x0.size):
        h = h_base * max(1.0, abs(flat[j]))
        for sign, slot in ((1.0, 0), (-1.0, 1)):
            x = x0.copy()
            x.ravel()[j] = flat[j] + sign * h
            write(x)
            if slot == 0:
                f_plus = eval_obj()
            else:
                f_minus = eval_obj()
        g[j] = (f_plus - f_minus) / (2.0 * h)
    write(x0)
    return g.reshape(shape)


def analytic_core(tensor, block):
    return core_gradient(
        hadamard_gram(block.factors),
        block.weights,
        core_linear_term(tensor, block.factors),
    )


def analytic_core_lra(tilde, block):
    return core_gradient(
        hadamard_gram(block.factors),
        block.weights,
        core_linear_term_lra(tilde.weights,
                             [t.T @ u for t, u in zip(tilde.factors, block.factors)]),
    )


def analytic_factor(tensor, block, n):
    return factor_gradient(
        block.factors[n],
        factor_surrogate(hadamard_gram(block.factors, skip=n), block.weights),
        mttkrp(tensor, block.factors, n),
        block.weights,
    )


def analytic_factor_lra(tilde, block, n):
    return factor_gradient(
        block.factors[n],
        factor_surrogate(hadamard_gram(block.factors, skip=n), block.weights),
        factor_linear_term_lra(tilde.factors[n] * tilde.weights,
                               [tilde.factors[m].T @ block.factors[m]
                                for m in range(N_MODES) if m != n]),
        block.weights,
    )


@pytest.mark.parametrize("i", range(8))
def test_core_gradient_matches_fd(i):
    tensors, blocks, _ = random_instance(i)
    for s, (t, k) in enumerate(zip(tensors, blocks)):
        fd = fd_against(
            lambda: objective(tensors, blocks),
            lambda k=k: k.weights,
            lambda x, k=k: setattr(k, "weights", x),
            k.weights.shape,
        )
        assert rel_err(analytic_core(t, k), fd) < 1e-6, f"block {s}"


@pytest.mark.parametrize("i", range(8))
def test_individual_factor_gradient_matches_fd(i):
    tensors, blocks, counts = random_instance(i)
    for n in range(N_MODES):
        ln = counts[n]
        for s, (t, k) in enumerate(zip(tensors, blocks)):
            if k.factors[n].shape[1] == ln:
                continue  # no individual columns in this mode

            def put(x, k=k, n=n, ln=ln):
                f = k.factors[n].copy()
                f[:, ln:] = x
                k.factors[n] = f

            fd = fd_against(
                lambda: objective(tensors, blocks),
                lambda k=k, n=n, ln=ln: k.factors[n][:, ln:],
                put,
                k.factors[n][:, ln:].shape,
            )
            got = analytic_factor(t, k, n)[:, ln:]
            assert rel_err(got, fd) < 1e-6, f"mode {n} block {s}"


@pytest.mark.parametrize("i", range(8))
def test_common_columns_gradient_is_block_sum(i):
    tensors, blocks, counts = random_instance(i)
    for n in range(N_MODES):
        ln = counts[n]
        if ln == 0:
            continue

        def put(x, n=n, ln=ln):
            for k in blocks:
                f = k.factors[n].copy()
                f[:, :ln] = x
                k.factors[n] = f

        fd = fd_against(
            lambda: objective(tensors, blocks),
            lambda n=n, ln=ln: blocks[0].factors[n][:, :ln],
            put,
            blocks[0].factors[n][:, :ln].shape,
        )
        got = sum(
            analytic_factor(t, k, n)[:, :ln] for t, k in zip(tensors, blocks)
        )
        assert rel_err(got, fd) < 1e-6, f"mode {n}"


@pytest.mark.parametrize("i", range(8))
def test_core_gradient_matches_fd_compressed(i):
    tensors, blocks, _ = random_instance(i)
    tilde = compressions_for(tensors, i)
    surrogate = [reconstruct(tk) for tk in tilde]
    for s, (tk, k) in enumerate(zip(tilde, blocks)):
        fd = fd_against(
            lambda: objective(surrogate, blocks),
            lambda k=k: k.weights,
            lambda x, k=k: setattr(k, "weights", x),
            k.weights.shape,
        )
        assert rel_err(analytic_core_lra(tk, k), fd) < 1e-6, f"block {s}"


@pytest.mark.parametrize("i", range(8))
def test_factor_gradient_matches_fd_compressed(i):
    tensors, blocks, counts = random_instance(i)
    tilde = compressions_for(tensors, i)
    surrogate = [reconstruct(tk) for tk in tilde]
    for n in range(N_MODES):
        ln = counts[n]
        for s, (tk, k) in enumerate(zip(tilde, blocks)):
            if k.factors[n].shape[1] == ln:
                continue

            def put(x, k=k, n=n, ln=ln):
                f = k.factors[n].copy()
                f[:, ln:] = x
                k.factors[n] = f

            fd = fd_against(
                lambda: objective(surrogate, blocks),
                lambda k=k, n=n, ln=ln: k.factors[n][:, ln:],
                put,
                k.factors[n][:, ln:].shape,
            )
            got = analytic_factor_lra(tk, k, n)[:, ln:]
            assert rel_err(got, fd) < 1e-6, f"mode {n} block {s}"


@pytest.mark.parametrize("i", range(4))
def test_common_columns_gradient_compressed(i):
    tensors, blocks, counts = random_instance(i)
    tilde = compressions_for(tensors, i)
    surrogate = [reconstruct(tk) for tk in tilde]
    for n in range(N_MODES):
        ln = counts[n]
        if ln == 0:
            continue

        def put(x, n=n, ln=ln):
            for k in blocks:
                f = k.factors[n].copy()
                f[:, :ln] = x
                k.factors[n] = f

        fd = fd_against(
            lambda: objective(surrogate, blocks),
            lambda n=n, ln=ln: blocks[0].factors[n][:, :ln],
            put,
            blocks[0].factors[n][:, :ln].shape,
        )
        got = sum(
            analytic_factor_lra(tk, k, n)[:, :ln]
            for tk, k in zip(tilde, blocks)
        )
        assert rel_err(got, fd) < 1e-6, f"mode {n}"
