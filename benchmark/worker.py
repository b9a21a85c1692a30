"""One workload in one process: set up, warm up, measure, check, report.

Started by ``run.py`` with the BLAS thread variables already pinned to 1 and
``src`` on ``PYTHONPATH``; see ``run.py`` for the command line.  Prints a
human-readable report, then the result JSON as the last line, and writes
the full record (machine, rounds, failures, spans) under ``.bench_out``.
"""

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import machine
import workloads
from tracer import Tracer

# set-up is repeated this often and reported as the median; a fixed count,
# not a time budget, so that the allocator sees the same sequence in every
# run and peak memory does not depend on the machine's speed
SETUP_REPEATS = 11


def _median(values):
    return float(statistics.median(values))


def _warm_up(wl, inputs, workdir):
    """A few iterations of every solve path on the workload's first problem,
    so first-call costs and the allocator's growth to the working set stay
    out of the timed rounds."""
    problem, _, seed = inputs[0]
    for mode in wl.modes:
        p = workloads.solver.CoupledProblem(
            problem.tensors, problem.ranks, problem.coupled_counts, mode=mode,
            als_options=workloads.AlsOptions(max_iter=2))
        result = workloads.solver.solve(p, workloads.solver.SolverOptions(max_iter=3, seed=seed))
        workdir.mkdir(parents=True, exist_ok=True)
        workloads.fileio.save_model(workdir / "warm_up.kt", result.factors.blocks[0])


def _setup(wl, seed, checks, tracer=None):
    """Generate the inputs repeatedly; returns the inputs and the timings."""
    seconds, generate_s, first = [], [], None
    for _ in range(SETUP_REPEATS):
        if tracer is not None:
            tracer.reset()
        tic = time.perf_counter()
        inputs = workloads.generate_inputs(wl, seed)
        seconds.append(time.perf_counter() - tic)
        if tracer is not None:
            generate_s.append(workloads.generate_seconds(tracer.spans))
        if first is None:
            first = inputs
    checks.record(workloads.same_inputs(first, inputs),
                  "the same seed generated different inputs")
    return first, seconds, generate_s


def _rounds(wl, inputs, checks, workdir, seconds, tracer=None):
    """Repeat rounds while the next one is predicted to end within
    ``seconds`` of the first one's start; always run at least one."""
    rounds, layers = [], []
    probe = wl.speed_probe()
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        tic = time.perf_counter()
        rnd = workloads.run_round(wl, inputs, checks, workdir, probe, tracer)
        rounds.append(rnd)
        if tracer is not None:
            sums = workloads.layer_sums(tracer.spans)
            sums["fileio.bytes_written"] = rnd["bytes_written"]
            sums["fileio.io_s"] = rnd["io_s"]
            layers.append(sums)
        now = time.perf_counter()
        if now - start + (now - tic) > seconds:
            return rounds, layers, probe


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--root", required=True)
    args = parser.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    root = Path(args.root)
    out_dir = root / ".bench_out"
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    workdir = out_dir / f"{stem}-files"

    threads = machine.blas_threads()
    if threads != 1:
        print(f"error: BLAS runs {threads} threads, not 1; refusing to time",
              file=sys.stderr)
        return 3
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine.machine_record(root),
              "blas_threads": threads}
    checks = workloads.Checks()

    tracer = None
    if args.trace:
        tracer = Tracer()
        workloads.install(tracer)
    inputs, setup_s, generate_s = _setup(wl, args.seed, checks, tracer)
    if tracer is not None:
        tracer.uninstall()
    _warm_up(wl, inputs, workdir)

    start = time.perf_counter()
    if args.trace:
        workloads.install(tracer)
        try:
            rounds, layers, probe = _rounds(wl, inputs, checks, workdir, args.seconds,
                                            tracer)
        finally:
            tracer.uninstall()
    else:
        rounds, _, probe = _rounds(wl, inputs, checks, workdir, args.seconds)
    measured_s = time.perf_counter() - start

    summaries = [workloads.round_summary(r) for r in rounds]
    med = {key: _median([s[key] for s in summaries]) for key in summaries[0]}
    probe_s = _median([t for r in rounds for t in r["probes"]])
    med["probe_ms"] = 1e3 * probe_s
    med["solve_ref_s"] = probe.rescale(med["solve_wall_s"], probe_s)
    if args.trace:
        values = {key: _median([lay[key] for lay in layers]) for key in layers[0]}
        for key in ("solve_wall_s", "probe_ms"):
            values[key] = med[key]
        for key in ("full_solve_s", "full_iters", "lra_iters", "full_restarts",
                    "lra_restarts", "full_ms_per_iter", "lra_ms_per_iter", "lra_compress_s"):
            values[f"solver.{key}"] = med[key]
        for key in ("full_pi", "lra_pi", "full_relerr", "lra_relerr"):
            values[f"metrics.{key}"] = med[key]
        values["synth.generate_s"] = _median(generate_s)
        dims, rank, _ = wl.specs(args.seed)[0].resolve()
        values.update(workloads.mttkrp_microbench(dims, rank, args.seed))
        values["blas_threads"] = threads
        values["trace_overhead_frac"] = med["trace_overhead_frac"]
        tracer.write_csv(out_dir / f"{stem}-spans.csv")
    else:
        values = {key: med[key] for key in ("solve_ref_s", "tenfit")}
        values["setup_s"] = _median(setup_s)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    declared = json.loads((root / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"]
                for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(declared):
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(declared))}")
    result_metrics = {name: {"value": float(values[name]), "unit": unit}
                      for name, unit in declared.items()}

    record.update({
        "rounds": len(rounds), "measured_s": measured_s, "setup_s_samples": setup_s,
        "probe_s_samples": [r["probes"] for r in rounds],
        "round_summaries": summaries, "failures": checks.failures,
        "metrics": result_metrics,
    })
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    kind = "traced round(s), the first problem's solves after untraced twins," \
        if args.trace else "round(s)"
    print(f"# {wl.name} seed {args.seed}: {len(rounds)} {kind} in {measured_s:.1f} s, "
          f"{wl.problems} problem(s) x modes {'/'.join(wl.modes)}")
    print("# machine: " + json.dumps(record["machine"]))
    for key in ("solve_wall_s", "probe_ms", "full_solve_s", "full_iters", "lra_iters",
                "full_relerr", "lra_relerr", "full_pi", "lra_pi", "io_s"):
        print(f"# {key} = {med[key]:.6g}")
    for name, m in result_metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for failure in checks.failures:
        print(f"# FAILED: {failure}")
    print(json.dumps({"correct": not checks.failures, "attempted": checks.attempted,
                      "failed": len(checks.failures), "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
