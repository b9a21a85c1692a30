"""Dense tensor kernels: vectorization, unfolding, Khatri-Rao, MTTKRP and grams.

Conventions (used consistently across the whole package):

* Tensors are plain ``numpy`` arrays of shape ``(I_1, ..., I_N)``.
* Linearization is first-index-fastest, i.e. Fortran order.  ``vectorize``
  of element ``(i_1, ..., i_N)`` lands at offset
  ``i_1 + I_1*i_2 + I_1*I_2*i_3 + ...`` (0-based).
* The mode-``n`` unfolding puts index ``i_n`` on the rows and the remaining
  indices on the columns with the lower modes varying fastest.
* ``factors_khatri_rao`` forms the Khatri-Rao product of the factor list in
  descending mode order, which makes
  ``vectorize(full_tensor) == factors_khatri_rao(factors) @ weights``
  an exact identity under the ordering above.

Beside that convention, :func:`mttkrp` computes the matricized tensor times
Khatri-Rao product on C-order views of the tensor, which cost no copy for a
C-contiguous tensor, and forms no Khatri-Rao product.  Each call makes at
most one tensor-sized GEMM: the first mode's contracts the last mode, every
other mode reuses the partial product :func:`mttkrp_partial` of the first
factor.  Both leave their result rank-major, ``(R, ...)`` and C-contiguous,
so the remaining modes are contracted by batched matrix-vector products,
one per rank column.  Every mode equals the Fortran-convention product
``matricize(t, n) @ factors_khatri_rao(factors, skip=n)``; only the
summation order differs.
"""

import numpy as np

__all__ = [
    "vectorize",
    "unvectorize",
    "matricize",
    "refold",
    "khatri_rao",
    "factors_khatri_rao",
    "mttkrp",
    "mttkrp_partial",
    "hadamard_gram",
    "spectral_norm",
]


def vectorize(t):
    """Flatten a tensor to a vector, first index fastest."""
    return np.asarray(t).reshape(-1, order="F")


def unvectorize(v, dims):
    """Inverse of :func:`vectorize` for the given dimension tuple."""
    v = np.asarray(v)
    dims = tuple(int(d) for d in dims)
    if v.size != int(np.prod(dims)):
        raise ValueError(f"vector of length {v.size} cannot fill dims {dims}")
    return v.reshape(dims, order="F")


def matricize(t, mode):
    """Mode-``mode`` unfolding of ``t`` (0-based mode index).

    Returns an ``I_mode x prod(other dims)`` matrix; column ordering follows
    the remaining modes in increasing order, lower modes fastest.
    """
    t = np.asarray(t)
    if not 0 <= mode < t.ndim:
        raise ValueError(f"mode {mode} out of range for order-{t.ndim} tensor")
    return np.moveaxis(t, mode, 0).reshape((t.shape[mode], -1), order="F")


def refold(m, mode, dims):
    """Inverse of :func:`matricize`: fold an unfolding back into shape ``dims``."""
    dims = tuple(int(d) for d in dims)
    if not 0 <= mode < len(dims):
        raise ValueError(f"mode {mode} out of range for dims {dims}")
    lead = (dims[mode],) + tuple(d for k, d in enumerate(dims) if k != mode)
    return np.moveaxis(np.asarray(m).reshape(lead, order="F"), 0, mode)


def khatri_rao(mats):
    """Column-wise Kronecker product of the matrices in the given order.

    Column ``r`` of the result is ``kron`` of the ``r``-th columns, first
    matrix slowest.  All matrices must share their column count.
    """
    mats = [np.asarray(m) for m in mats]
    if not mats:
        raise ValueError("khatri_rao needs at least one matrix")
    ncols = mats[0].shape[1]
    for m in mats[1:]:
        if m.shape[1] != ncols:
            raise ValueError(
                f"column counts differ: {[m.shape[1] for m in mats]}"
            )
    out = mats[0]
    for m in mats[1:]:
        # kron(a, b) has b's index fastest: out[i*J + j] = a[i] * b[j]
        out = (out[:, None, :] * m[None, :, :]).reshape(-1, ncols)
    return out


def factors_khatri_rao(factors, skip=None):
    """Khatri-Rao product of a factor list in descending mode order.

    With ``skip=n`` the mode-``n`` factor is left out, yielding the product
    used by mode-``n`` unfolded model terms.
    """
    mats = [f for k, f in enumerate(factors) if k != skip]
    return khatri_rao(mats[::-1])


def mttkrp_partial(t, first, out=None):
    """``P[i_2, ..., i_N, r] = sum_{i_1} t[i_1, ..., i_N] first[i_1, r]``.

    One GEMM, ``first.T @ t.reshape(I_1, -1)``, on the C-order view; the
    result is stored rank-major, ``(R, I_2, ..., I_N)``, and returned as a
    free transposed view in the index order above.  ``out``, an earlier
    result of this function for the same shapes, is written in place, so a
    caller that rebuilds the partial every sweep keeps one buffer.  A sweep
    that updates the first factor first computes this once after that
    update and hands it to :func:`mttkrp` for every later mode of the sweep.
    Also takes an ``(S, I_1, ..., I_N)`` stack with an ``(S, I_1, R)``
    factor stack, one batched GEMM whose every slice is bit-identical to
    the call on that slice alone.
    """
    b = first.ndim - 2  # 1 for a stack
    lead, dims, rank = t.shape[:b], t.shape[b:], first.shape[-1]
    base = None if out is None else _rank_first(out, b).reshape(lead + (rank, -1))
    base = np.matmul(first.swapaxes(-1, -2), t.reshape(lead + (dims[0], -1)), out=base)
    base = base.reshape(lead + (rank,) + dims[1:])
    return base.transpose(tuple(range(b)) + tuple(range(b + 1, base.ndim)) + (b,))


def mttkrp(t, factors, mode, partial=None):
    """``matricize(t, mode) @ factors_khatri_rao(factors, skip=mode)``
    without unfolding copies or a Khatri-Rao product (0-based ``mode``).

    Mode 0 is one GEMM of the C-order view against the last factor,
    ``factors[-1].T @ t.reshape(-1, I_N).T``, which leaves the product
    rank-major, ``(R, I_1, ..., I_{N-1})``; the middle modes are then
    contracted by batched matrix-vector products, one per rank column.  Any
    other mode contracts the rank-major storage of ``partial``
    (``mttkrp_partial(t, factors[0])``, computed here when not given) the same
    way over the modes other than 0 and ``mode``, so a caller that reuses one
    partial across those modes pays one tensor-sized GEMM for all of them.
    For an order-2 tensor mode 1 contracts nothing, and its result is a view
    of ``partial``.  A tensor that is not C-contiguous is copied by the
    reshape on every call.  An ``(S, I_1, ..., I_N)`` stack with
    ``(S, I_n, R)`` factor stacks gives the ``(S, I_mode, R)`` stack of
    products from the same calls batched over ``S``, each slice
    bit-identical to the call on that slice alone.
    """
    b = factors[0].ndim - 2  # 1 for a stack
    order = t.ndim - b
    if not 0 <= mode < order:
        raise ValueError(f"mode {mode} out of range for order-{order} tensor")
    if len(factors) != order:
        raise ValueError(f"{len(factors)} factors for an order-{order} tensor")
    if order < 2:
        raise ValueError("mttkrp needs a tensor of order 2 or more")
    lead, dims = t.shape[:b], t.shape[b:]
    if mode == 0:
        last = factors[-1]
        base = last.swapaxes(-1, -2) @ t.reshape(lead + (-1, dims[-1])).swapaxes(-1, -2)
        base = base.reshape(lead + (last.shape[-1],) + dims[:-1])
        return _contract_rank_major(base, factors[:-1], 0, b).swapaxes(-1, -2)
    if partial is None:
        partial = mttkrp_partial(t, factors[0])
    return _contract_rank_major(_rank_first(partial, b), factors[1:], mode - 1, b).swapaxes(-1, -2)


def _contract_rank_major(base, mats, keep, b):
    """``out[r, j] = sum base[r, j_0, ..., j_k] prod_{m != keep} mats[m][j_m, r]``
    with ``j = j_keep``: per rank column, matrix-vector products of ``base``
    against the trailing modes' columns, then the leading modes'.  ``b``
    leading axes, of ``base`` and of every matrix, are batch axes."""
    lead, rank, dims = base.shape[:b], base.shape[b], base.shape[b + 1:]
    for m in range(len(dims) - 1, keep, -1):
        base = base.reshape(lead + (rank, -1, dims[m])) @ mats[m].swapaxes(-1, -2)[..., None]
    for m in range(keep):
        base = mats[m].swapaxes(-1, -2)[..., None, :] @ base.reshape(lead + (rank, dims[m], -1))
    return base.reshape(lead + (rank, dims[keep]))


def _rank_first(p, b):
    """The rank-major view ``(R, I_2, ..., I_N)`` of a partial product,
    behind ``b`` leading batch axes."""
    return p.transpose(tuple(range(b)) + (p.ndim - 1,) + tuple(range(b, p.ndim - 1)))


def hadamard_gram(mats, skip=None):
    """Element-wise product of the per-mode gram matrices.

    Computes ``prod_n (mats[n].T @ mats[n])`` element-wise, skipping index
    ``skip`` if given: the gram ``(U_kr).T @ U_kr`` of the Khatri-Rao
    product, obtained without forming it.  Takes one matrix per mode, or
    ``(S, I_n, R)`` stacks, whose grams are taken slice by slice.
    """
    out = None
    for k, a in enumerate(mats):
        if k == skip:
            continue
        g = np.swapaxes(a, -1, -2) @ np.asarray(a)
        if out is None:
            out = g
        elif g.shape != out.shape:
            raise ValueError(f"gram shapes differ: {out.shape} vs {g.shape}")
        else:
            out = out * g
    if out is None:
        raise ValueError("no matrices left after skip")
    return out


# the least entry of a warm start relative to its largest: it keeps the
# start positive on rows that are zero now and may not be at the next call
_PERRON_FLOOR = 1e-12


def spectral_norm(g, start=None):
    """Largest eigenvalue of a symmetric PSD matrix, or an upper bound on it.

    Without ``start`` it is solved exactly by LAPACK: a stack of shape
    ``(..., R, R)`` gives its matrices' norms from one batched call, each
    bit-identical to the norm of that matrix alone.

    With ``start``, a strictly positive ``(..., R)`` array, the matrices
    must also be entrywise nonnegative.  For such a ``G`` and any positive
    ``x`` the Collatz-Wielandt ratio ``max_i (G x)_i / x_i`` bounds the norm
    from above, and equals it at the Perron vector (Horn & Johnson, *Matrix
    Analysis*, 2nd ed., section 8.1).  One power step ``y = G start`` is
    taken and the ratio of ``G y`` over ``y`` returned, rows where ``y`` is
    0 (zero rows of ``G``, where ``G y`` is 0 too) reading 0; ``G y``, scaled
    to a maximum of 1 and floored at ``_PERRON_FLOOR``, is written back into
    ``start``.  That is two batched matrix-vector products and no LAPACK
    call, and a caller that carries ``start`` across calls on slowly
    changing matrices keeps the bound close to the norm.  Proximal steps divide by the result, so a
    bound above the norm only shortens them.

    Returns 0.0 for the zero matrix, whose ``start`` is left as it was; a
    single matrix gives a ``float``.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim < 2 or g.shape[-1] != g.shape[-2] or g.shape[-1] == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {g.shape}")
    if start is None:
        top = np.maximum(np.linalg.eigvalsh(g)[..., -1], 0.0)
        top = np.where(g.any(axis=(-2, -1)), top, 0.0)
    else:
        y = (g @ start[..., None])[..., 0]
        z = (g @ y[..., None])[..., 0]
        top = np.maximum.reduce(z / np.where(y > 0.0, y, 1.0), axis=-1)
        scale = np.maximum.reduce(z, axis=-1, keepdims=True)
        np.divide(z, scale, out=start, where=scale > 0.0)
        np.maximum(start, _PERRON_FLOOR, out=start)
    return float(top) if g.ndim == 2 else top
