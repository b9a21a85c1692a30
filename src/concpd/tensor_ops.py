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
Khatri-Rao product on the C-order view ``t.reshape(I_1, -1)``, which costs no
copy for a C-contiguous tensor.  The view's columns run over the other modes
with the last one fastest, so the first mode contracts against the
Khatri-Rao product of the other factors in ascending order; every other mode
contracts the partial product :func:`mttkrp_partial` of the first factor
with the remaining factors.  Both equal the Fortran-convention product
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


def mttkrp_partial(t, first):
    """``P[i_2, ..., i_N, r] = sum_{i_1} t[i_1, ..., i_N] first[i_1, r]``.

    One GEMM on the C-order view.  A sweep that updates the first factor
    first computes this once after that update and hands it to
    :func:`mttkrp` for every later mode of the sweep.
    """
    t = np.asarray(t)
    first = np.asarray(first)
    p = t.reshape(t.shape[0], -1).T @ first
    return p.reshape(t.shape[1:] + (first.shape[1],))


def mttkrp(t, factors, mode, partial=None):
    """``matricize(t, mode) @ factors_khatri_rao(factors, skip=mode)``
    without unfolding copies (0-based ``mode``).

    Mode 0 is one GEMM of the C-order view against the Khatri-Rao product
    of ``factors[1:]`` in ascending order.  Any other mode contracts
    ``partial`` (``mttkrp_partial(t, factors[0])``, computed here when not
    given) with the factors of the modes other than 0 and ``mode``, so a
    caller that reuses one partial across those modes pays one tensor-sized
    GEMM for all of them.  A tensor that is not C-contiguous is copied by
    the reshape on every call.
    """
    t = np.asarray(t)
    if not 0 <= mode < t.ndim:
        raise ValueError(f"mode {mode} out of range for order-{t.ndim} tensor")
    if len(factors) != t.ndim:
        raise ValueError(f"{len(factors)} factors for an order-{t.ndim} tensor")
    if mode == 0:
        return t.reshape(t.shape[0], -1) @ khatri_rao(factors[1:])
    if partial is None:
        partial = mttkrp_partial(t, factors[0])
    # one letter per mode 1..N-1 of the partial, "z" for the rank
    axes = "abcdefghijklmnopqrstuvwxy"[: t.ndim - 1]
    terms, operands = [axes + "z"], [partial]
    for m in range(1, t.ndim):
        if m != mode:
            terms.append(axes[m - 1] + "z")
            operands.append(factors[m])
    return np.einsum(",".join(terms) + "->" + axes[mode - 1] + "z", *operands)


def hadamard_gram(mats, skip=None, mats2=None):
    """Element-wise product of the per-mode gram matrices.

    Computes ``prod_n (mats[n].T @ mats2[n])`` element-wise, skipping index
    ``skip`` if given.  With ``mats2=None`` this is the gram
    ``(U_kr).T @ U_kr`` of the Khatri-Rao product, obtained without forming
    it.  With distinct ``mats2`` it is the rectangular cross-gram that the
    compressed solver path relies on.
    """
    if mats2 is None:
        mats2 = mats
    if len(mats) != len(mats2):
        raise ValueError("mats and mats2 must have the same length")
    out = None
    for k, (a, b) in enumerate(zip(mats, mats2)):
        if k == skip:
            continue
        g = np.asarray(a).T @ np.asarray(b)
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
