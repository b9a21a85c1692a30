"""Compare the raw solver with its compressed variant: same model quality,
much cheaper iterations once the blocks get large."""

from concpd import CoupledProblem, SolverOptions, SynthSpec, generate, solve
from concpd.cli import limit_blas_threads


def run(data, mode, opts):
    problem = CoupledProblem(data.tensors, data.ranks, data.coupled_counts,
                             mode=mode)
    return solve(problem, opts)


def main():
    # ten noisy 32x36x40 blocks, rank 18 — large enough to feel the cost
    spec = SynthSpec(n_blocks=10, size_factor=4, snr_db=20.0, seed=0)
    data, _ = generate(spec)
    print(f"{len(data.tensors)} blocks of shape {data.tensors[0].shape}, "
          f"rank {data.ranks[0]}")

    opts = SolverOptions(max_iter=40, tol=1e-300, seed=0)
    results = {}
    with limit_blas_threads(1):
        for mode in ("full", "lra"):
            results[mode] = run(data, mode, opts)

    full, lra = results["full"], results["lra"]
    print(f"\n{'':14s}{'TenFit':>10s}{'iters':>7s}{'ms/iter':>9s}"
          f"{'compress':>10s}")
    for tag, res in results.items():
        per_iter = 1e3 * res.solve_seconds / res.n_iter
        print(f"{tag:14s}{1 - res.trace[-1].rel_err:10.4f}{res.n_iter:7d}"
              f"{per_iter:9.2f}{res.compress_seconds:9.2f}s")

    ratio = (full.solve_seconds / full.n_iter) / (lra.solve_seconds / lra.n_iter)
    print(f"\nper-iteration speedup: {ratio:.1f}x")
    print("per block compression: rank, ALS sweeps, relerr, converged")
    for s, c in enumerate(lra.compression):
        print(f"  block {s}: {c.model.rank:3d} {c.n_iter:4d} {c.rel_err:.2e} "
              f"{c.converged}")
    gap = abs(full.trace[-1].rel_err - lra.trace[-1].rel_err)
    print(f"fit difference between the two solutions: {gap:.2e}")


if __name__ == "__main__":
    main()
