"""Kruskal (CP) models: factor matrices plus super-diagonal core weights.

A rank-``R`` model of an order-``N`` tensor is ``N`` factor matrices
``U^(n)`` of shape ``(I_n, R)`` together with a weight vector ``lam`` of
length ``R`` holding the super-diagonal of the core.  A coupled set is a
list of such models sharing, per mode, a common leading block of columns.
"""

from dataclasses import dataclass, field

import numpy as np

from .tensor_ops import factors_khatri_rao, refold

__all__ = [
    "KruskalTensor",
    "CoupledFactorSet",
    "reconstruct",
    "normalize_columns",
]


@dataclass
class KruskalTensor:
    """Factor matrices and core weights of one CP model."""

    factors: list
    weights: np.ndarray

    def __post_init__(self):
        self.factors = [np.asarray(f, dtype=float) for f in self.factors]
        self.weights = np.asarray(self.weights, dtype=float).reshape(-1)
        ranks = {f.shape[1] for f in self.factors}
        if len(ranks) != 1:
            raise ValueError(f"factors disagree on rank: {sorted(ranks)}")
        if self.weights.size != self.rank:
            raise ValueError(
                f"{self.weights.size} weights for rank-{self.rank} factors"
            )

    @property
    def order(self):
        return len(self.factors)

    @property
    def rank(self):
        return self.factors[0].shape[1]

    @property
    def dims(self):
        return tuple(f.shape[0] for f in self.factors)

    def copy(self):
        return KruskalTensor([f.copy() for f in self.factors], self.weights.copy())

    def is_nonnegative(self):
        return all((f >= 0).all() for f in self.factors) and (self.weights >= 0).all()


@dataclass
class CoupledFactorSet:
    """``S`` Kruskal models whose mode-``n`` factors share the first ``L_n`` columns."""

    blocks: list
    coupled_counts: list = field(default_factory=list)

    def __post_init__(self):
        self.coupled_counts = [int(c) for c in self.coupled_counts]
        if self.blocks:
            order = self.blocks[0].order
            if any(b.order != order for b in self.blocks):
                raise ValueError("blocks must share the tensor order")
            if len(self.coupled_counts) != order:
                raise ValueError(
                    f"{len(self.coupled_counts)} coupled counts for order {order}"
                )

    @property
    def n_blocks(self):
        return len(self.blocks)

    @property
    def order(self):
        return self.blocks[0].order

    def validate(self):
        """Check coupling invariants, raising with the offending mode/block;
        shared columns must agree bit for bit."""
        min_rank = min(b.rank for b in self.blocks)
        for n, count in enumerate(self.coupled_counts):
            if not 0 <= count <= min_rank:
                raise ValueError(
                    f"coupled count {count} in mode {n} exceeds minimum rank {min_rank}"
                )
            if count == 0:
                continue
            ref = self.blocks[0].factors[n][:, :count]
            for s, block in enumerate(self.blocks[1:], start=1):
                fac = block.factors[n]
                if fac.shape[0] != ref.shape[0]:
                    raise ValueError(
                        f"mode {n} is coupled but block {s} has {fac.shape[0]} rows "
                        f"vs {ref.shape[0]} in block 0"
                    )
                if not np.array_equal(fac[:, :count], ref):
                    raise ValueError(
                        f"common columns differ in mode {n} between block 0 and block {s}"
                    )


def reconstruct(k):
    """Full tensor of a Kruskal model: sum of weighted rank-1 outer products.

    Evaluated through the mode-0 unfolding
    ``U^(0) @ diag(lam) @ kr(others).T`` and refolded.
    """
    unfolded = (k.factors[0] * k.weights) @ factors_khatri_rao(k.factors, skip=0).T
    return refold(unfolded, 0, k.dims)


def normalize_columns(k):
    """Rescale every factor column to unit norm, absorbing the scale into the weights.

    The reconstruction is unchanged.  Zero columns cannot be normalized and
    are reported by mode and column.
    """
    factors = []
    weights = k.weights.copy()
    for n, f in enumerate(k.factors):
        norms = np.linalg.norm(f, axis=0)
        zero = np.flatnonzero(norms == 0.0)
        if zero.size:
            raise ValueError(f"zero column {zero[0]} in mode-{n} factor")
        factors.append(f / norms)
        weights = weights * norms
    return KruskalTensor(factors, weights)
