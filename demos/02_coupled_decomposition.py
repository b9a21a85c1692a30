"""Decompose three coupled tensors that share factor columns, and check
the recovery against the generating ground truth."""

import numpy as np

from concpd import (
    CoupledProblem,
    SolverOptions,
    SynthSpec,
    generate,
    pi_per_mode,
    solve,
)


def main():
    # three 16x18x20 blocks of rank 9 sharing 4 columns per mode, no noise
    spec = SynthSpec(n_blocks=3, size_factor=2, snr_db=None, seed=0,
                     coupled=(4, 4, 4))
    data, truth = generate(spec)
    print(f"{len(data.tensors)} blocks of shape {data.tensors[0].shape}, "
          f"rank {data.ranks[0]}, shared columns {tuple(data.coupled_counts)}")

    problem = CoupledProblem(data.tensors, data.ranks, data.coupled_counts)
    result = solve(problem, SolverOptions(seed=0))

    print(f"\nstopped after {result.n_iter} iterations "
          f"({result.termination_reason}, {result.n_restarts} restarts, "
          f"{result.solve_seconds:.2f}s)")
    for row in result.trace[:: max(1, len(result.trace) // 8)]:
        print(f"  iter {row.iteration:4d}  objfun {row.obj_fun:12.6f}  "
              f"relerr {row.rel_err:.2e}")

    pi = pi_per_mode(result.factors, truth)
    print(f"\nfinal relative error {result.trace[-1].rel_err:.2e}")
    print("per-mode performance index vs. truth:",
          " ".join(f"{p:.4f}" for p in pi))
    print("(0 means recovered up to scaled permutation)")

    # the shared columns really are shared, not merely similar
    first = result.factors.blocks[0].factors[0][:, :4]
    same = all(
        np.array_equal(b.factors[0][:, :4], first)
        for b in result.factors.blocks
    )
    print("mode-0 shared columns identical across blocks:", same)


if __name__ == "__main__":
    main()
