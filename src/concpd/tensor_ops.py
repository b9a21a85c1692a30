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
    """
    t = np.asarray(t)
    first = np.asarray(first)
    rank = first.shape[1]
    base = None if out is None else _rank_first(out).reshape(rank, -1)
    base = np.matmul(first.T, t.reshape(t.shape[0], -1), out=base)
    base = base.reshape((rank,) + t.shape[1:])
    return base.transpose(tuple(range(1, base.ndim)) + (0,))


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
    reshape on every call.
    """
    t = np.asarray(t)
    if not 0 <= mode < t.ndim:
        raise ValueError(f"mode {mode} out of range for order-{t.ndim} tensor")
    if len(factors) != t.ndim:
        raise ValueError(f"{len(factors)} factors for an order-{t.ndim} tensor")
    if t.ndim < 2:
        raise ValueError("mttkrp needs a tensor of order 2 or more")
    if mode == 0:
        last = np.asarray(factors[-1])
        base = last.T @ t.reshape(-1, t.shape[-1]).T
        base = base.reshape((last.shape[1],) + t.shape[:-1])
        return _contract_rank_major(base, factors[:-1], 0).T
    if partial is None:
        partial = mttkrp_partial(t, factors[0])
    return _contract_rank_major(_rank_first(partial), factors[1:], mode - 1).T


def _contract_rank_major(base, mats, keep):
    """``out[r, j] = sum base[r, j_0, ..., j_k] prod_{m != keep} mats[m][j_m, r]``
    with ``j = j_keep``: per rank column, matrix-vector products of ``base``
    against the trailing modes' columns, then the leading modes'."""
    rank, dims = base.shape[0], base.shape[1:]
    for m in range(len(dims) - 1, keep, -1):
        base = base.reshape(rank, -1, dims[m]) @ np.asarray(mats[m]).T[:, :, None]
    for m in range(keep):
        base = np.asarray(mats[m]).T[:, None, :] @ base.reshape(rank, dims[m], -1)
    return base.reshape(rank, dims[keep])


def _rank_first(p):
    """The rank-major view ``(R, I_2, ..., I_N)`` of a partial product."""
    return p.transpose((p.ndim - 1,) + tuple(range(p.ndim - 1)))


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


def spectral_norm(g):
    """Largest eigenvalue of a symmetric PSD matrix.

    Solved exactly: the matrices this is used on are rank-by-rank gram
    products, small enough that an iterative bound would save nothing while
    an underestimate would oversize the proximal steps that divide by it.
    Returns 0.0 for the zero matrix.  A stack of shape ``(..., R, R)`` gives
    the array of its matrices' norms from one batched LAPACK call, each
    bit-identical to the norm of that matrix alone; a single matrix gives a
    ``float``.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim < 2 or g.shape[-1] != g.shape[-2] or g.shape[-1] == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {g.shape}")
    top = np.maximum(np.linalg.eigvalsh(g)[..., -1], 0.0)
    top = np.where(g.any(axis=(-2, -1)), top, 0.0)
    return float(top) if g.ndim == 2 else top
