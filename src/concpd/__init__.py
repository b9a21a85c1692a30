"""Coupled nonnegative CP decomposition by alternating proximal gradient."""

from .cpd_als import AlsOptions, AlsResult, cpd_als
from .kruskal import (
    CoupledFactorSet,
    KruskalTensor,
    normalize_columns,
    reconstruct,
)
from .metrics import (
    MetricReport,
    add_noise,
    estimate_coupled_count,
    estimate_rank_evr,
    mcc,
    performance_index,
    pi_per_mode,
    psnr,
    rel_err,
    ten_fit,
)
from .solver import (
    CoupledProblem,
    SolveResult,
    SolverOptions,
    TraceRow,
    solve,
)
from .synth import SynthSpec, generate
from .tensor_ops import (
    factors_khatri_rao,
    hadamard_gram,
    khatri_rao,
    matricize,
    refold,
    spectral_norm,
    unvectorize,
    vectorize,
)

__version__ = "0.1.0"
