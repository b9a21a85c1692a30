"""Decomposition quality metrics, noise injection, and model-order helpers.

Reconstruction quality is summarized by the averaged relative error and its
complement (``rel_err`` / ``ten_fit``), factor recovery by the permutation-
and scale-invariant performance index, image quality by PSNR, and component
stability across runs by the multi-domain maximum correlation coefficient.
``add_noise`` produces the SNR-controlled corruptions used by the synthetic
experiments; the ``estimate_*`` helpers cover model-order selection.
"""

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MetricReport",
    "rel_err",
    "ten_fit",
    "performance_index",
    "pi_per_mode",
    "psnr",
    "mcc",
    "add_noise",
    "estimate_rank_evr",
    "estimate_coupled_count",
]

PSNR_CAP_DB = 99.0


@dataclass
class MetricReport:
    """Flat record of the per-run quality numbers.

    ``pi_per_mode`` holds the block-averaged performance index for each mode
    (``None`` when no ground truth is available); ``psnr`` and ``mcc`` are
    filled only by the experiments that use them.
    """

    rel_err: float
    ten_fit: float
    obj_fun: float
    pi_per_mode: list
    elapsed_seconds: float
    psnr: float = None
    mcc: float = None


def _norm_ratios(originals, recovered):
    if len(originals) != len(recovered):
        raise ValueError(
            f"{len(originals)} original blocks vs {len(recovered)} recovered"
        )
    ratios = []
    for s, (m, m_hat) in enumerate(zip(originals, recovered)):
        m = np.asarray(m, dtype=float)
        m_hat = np.asarray(m_hat, dtype=float)
        if m.shape != m_hat.shape:
            raise ValueError(
                f"block {s}: original shape {m.shape} != recovered {m_hat.shape}"
            )
        denom = float(np.linalg.norm(m))
        if denom == 0.0:
            ratios.append(0.0)
        else:
            ratios.append(float(np.linalg.norm(m - m_hat)) / denom)
    return ratios


def rel_err(originals, recovered):
    """Averaged relative reconstruction error over the block list.

    Blocks with zero norm contribute 0 by convention.
    """
    ratios = _norm_ratios(originals, recovered)
    return float(sum(ratios) / len(ratios))


def ten_fit(originals, recovered):
    """Complement of :func:`rel_err`; 1 means perfect reconstruction."""
    return 1.0 - rel_err(originals, recovered)


def performance_index(estimated, truth):
    """Permutation/scale-invariant recovery error of a factor matrix.

    Forms ``G = pinv(estimated) @ truth`` and measures how far ``G`` is from
    a scaled permutation: each row and column of ``|G|`` is normalized by its
    largest entry and the off-peak mass is averaged.  Exactly 0 when the
    estimate spans the truth column-for-column in any order and scaling.

    Raises for a single-component input (the normalizer vanishes) and warns
    when the estimate is rank-deficient, in which case the pseudo-inverse
    mixes components and the returned value is not meaningful.
    """
    estimated = np.asarray(estimated, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if estimated.shape != truth.shape:
        raise ValueError(
            f"estimated shape {estimated.shape} != truth {truth.shape}"
        )
    rank = truth.shape[1]
    if rank == 1:
        raise ValueError("performance index is undefined for a single component")
    if np.linalg.matrix_rank(estimated) < rank:
        warnings.warn(
            "estimated factor matrix is rank-deficient; performance index "
            "is unreliable",
            RuntimeWarning,
            stacklevel=2,
        )
    g = np.abs(np.linalg.pinv(estimated) @ truth)
    row_max = g.max(axis=1, keepdims=True)
    col_max = g.max(axis=0, keepdims=True)
    row_max[row_max == 0.0] = 1.0
    col_max[col_max == 0.0] = 1.0
    row_terms = np.maximum((g / row_max).sum(axis=1) - 1.0, 0.0)
    col_terms = np.maximum((g / col_max).sum(axis=0) - 1.0, 0.0)
    return float((row_terms.sum() + col_terms.sum()) / (2.0 * rank * (rank - 1)))


def pi_per_mode(estimated, truth):
    """Block-averaged :func:`performance_index`, one value per mode.

    Both arguments are coupled factor sets; blocks are matched by position.
    """
    if len(estimated.blocks) != len(truth.blocks):
        raise ValueError(
            f"{len(estimated.blocks)} estimated blocks vs {len(truth.blocks)}"
        )
    order = truth.blocks[0].order
    out = []
    for n in range(order):
        vals = [
            performance_index(e.factors[n], t.factors[n])
            for e, t in zip(estimated.blocks, truth.blocks)
        ]
        out.append(float(np.mean(vals)))
    return out


def psnr(original, recovered, peak=255.0):
    """Peak signal-to-noise ratio in dB, capped at 99 for serialization."""
    original = np.asarray(original, dtype=float)
    recovered = np.asarray(recovered, dtype=float)
    if original.shape != recovered.shape:
        raise ValueError(
            f"original shape {original.shape} != recovered {recovered.shape}"
        )
    if peak <= 0:
        raise ValueError("peak must be positive")
    mse = float(np.mean((original - recovered) ** 2))
    if mse == 0.0:
        return PSNR_CAP_DB
    return float(min(10.0 * np.log10(peak * peak / mse), PSNR_CAP_DB))


def _corr_vector(template, candidates):
    """Pearson correlation of a vector against each matrix column.

    Zero-variance columns (or a zero-variance template) correlate as 0.
    """
    u = np.asarray(template, dtype=float).ravel()
    mat = np.asarray(candidates, dtype=float)
    if u.size != mat.shape[0]:
        raise ValueError(
            f"template length {u.size} != candidate rows {mat.shape[0]}"
        )
    uc = u - u.mean()
    su = float(np.linalg.norm(uc))
    mc = mat - mat.mean(axis=0)
    sm = np.linalg.norm(mc, axis=0)
    out = np.zeros(mat.shape[1])
    ok = sm > 0.0
    if su > 0.0:
        out[ok] = (uc @ mc[:, ok]) / (su * sm[ok])
    return out


def mcc(templates, candidates):
    """Maximum over components of the product of per-domain correlations.

    ``templates`` is one expected pattern per domain and ``candidates`` the
    matching per-domain component matrices (columns are components, aligned
    across domains).  A value near 1 means some component reproduces every
    template simultaneously.
    """
    if len(templates) != len(candidates):
        raise ValueError(
            f"{len(templates)} templates vs {len(candidates)} candidate sets"
        )
    if not templates:
        raise ValueError("need at least one domain")
    n_comp = np.asarray(candidates[0]).shape[1]
    prod = np.ones(n_comp)
    for d, (u, mat) in enumerate(zip(templates, candidates)):
        mat = np.asarray(mat, dtype=float)
        if mat.shape[1] != n_comp:
            raise ValueError(
                f"domain {d} has {mat.shape[1]} components, expected {n_comp}"
            )
        prod *= _corr_vector(u, mat)
    return float(prod.max())


def add_noise(t, snr_db=None, kind="gaussian", density=0.1, seed=0):
    """Corrupt a nonnegative tensor, returning a new array.

    ``gaussian``: additive white noise whose power is set from ``snr_db``
    against the mean-square signal level, clipped at zero afterwards so the
    result stays a valid solver input.  ``saltpepper``: exactly the given
    fraction of entries forced to 0 or to the tensor's peak value with equal
    probability (``snr_db`` is ignored).
    """
    t = np.asarray(t, dtype=float)
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        if snr_db is None or not np.isfinite(snr_db):
            raise ValueError("gaussian noise needs a finite snr_db")
        p_s = float(np.mean(t * t))
        sigma = np.sqrt(p_s / 10.0 ** (snr_db / 10.0))
        noisy = t + rng.normal(0.0, sigma, t.shape)
        return np.maximum(noisy, 0.0, out=noisy)
    if kind == "saltpepper":
        if not 0.0 <= density <= 1.0:
            raise ValueError(f"density must lie in [0, 1], got {density}")
        out = t.copy()
        n_hit = int(round(density * t.size))
        if n_hit == 0:
            return out
        idx = rng.choice(t.size, size=n_hit, replace=False)
        coin = rng.integers(0, 2, n_hit).astype(bool)
        out.ravel()[idx] = np.where(coin, float(t.max()), 0.0)
        return out
    raise ValueError(f"unknown noise kind: {kind!r}")


def estimate_rank_evr(m, threshold=0.99):
    """Smallest rank whose leading singular values explain the threshold.

    Works from the eigenvalues of the smaller gram matrix, so only a
    ``min(I, J)``-sized symmetric eigenproblem is solved.  Returns 0 for the
    zero matrix.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must lie in (0, 1], got {threshold}")
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    gram = m @ m.T if m.shape[0] <= m.shape[1] else m.T @ m
    evals = np.linalg.eigvalsh(gram)[::-1]
    evals = np.maximum(evals, 0.0)
    total = float(evals.sum())
    if total == 0.0:
        return 0
    cum = np.cumsum(evals)
    target = min(threshold * total, cum[-1])
    return int(np.searchsorted(cum, target) + 1)


def estimate_coupled_count(a, b, rho=0.8):
    """Greedy count of one-to-one column pairs correlated at least ``rho``.

    Pairs are claimed in decreasing order of absolute Pearson correlation;
    each column participates in at most one pair.  Zero-variance columns
    never match (their correlation is 0).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"row counts differ: {a.shape[0]} vs {b.shape[0]}")
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    corr = np.abs(
        np.vstack([_corr_vector(a[:, j], b) for j in range(a.shape[1])])
    )
    count = 0
    while corr.size:
        i, j = np.unravel_index(np.argmax(corr), corr.shape)
        if corr[i, j] < rho:
            break
        count += 1
        corr = np.delete(np.delete(corr, i, axis=0), j, axis=1)
    return count
