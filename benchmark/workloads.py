"""Workload definitions, one measured round, correctness checks and layer sums.

A round solves every problem of a workload in each of its modes through the
public API, the way ``concpd generate`` / ``concpd solve`` do, then writes
and re-reads the text files ``concpd solve`` would leave behind.  Problem
``j`` of base seed ``b`` is drawn with seed ``b * problems + j`` and solved
with the same initialization seed, so base seeds give disjoint problem sets.
"""

import importlib
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from speed import SpeedProbe
from tracer import ATTRS, NAME, PARENT, child_seconds, duration

fileio = importlib.import_module("concpd.fileio")
metrics = importlib.import_module("concpd.metrics")
solver = importlib.import_module("concpd.solver")
synth = importlib.import_module("concpd.synth")
tensor_ops = importlib.import_module("concpd.tensor_ops")
# the package re-exports the function under the module's name
cpd_als_module = importlib.import_module("concpd.cpd_als")
AlsOptions = cpd_als_module.AlsOptions


@dataclass(frozen=True)
class Workload:
    name: str
    n_blocks: int
    size_factor: int
    snr_db: object
    modes: tuple
    problems: int
    max_iter: int
    tol: float
    termination: str
    # sweeps of the speed probe over the workload's blocks, and its time at
    # the reference speed (about the fast phase of a 2-core Intel Xeon VM)
    probe_sweeps: int
    probe_reference_s: float
    problem_io: bool = False
    parity: float = None

    def specs(self, base_seed):
        return [synth.SynthSpec(n_blocks=self.n_blocks, size_factor=self.size_factor,
                                snr_db=self.snr_db, seed=base_seed * self.problems + j)
                for j in range(self.problems)]

    def speed_probe(self):
        dims, rank, _ = self.specs(0)[0].resolve()
        return SpeedProbe(dims, rank, self.n_blocks, self.probe_sweeps,
                          self.probe_reference_s)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="ladder-n8-fixed30",
        n_blocks=10, size_factor=8, snr_db=20.0, modes=("full", "lra"), problems=1,
        max_iter=30, tol=1e-300, termination="max_iterations",
        probe_sweeps=5, probe_reference_s=0.33),
    Workload(
        name="ladder-n2-converge",
        n_blocks=6, size_factor=2, snr_db=20.0, modes=("full", "lra"), problems=24,
        max_iter=1000, tol=1e-8, termination="tolerance",
        probe_sweeps=30, probe_reference_s=0.03, problem_io=True, parity=0.02),
)}


class Checks:
    """Operations attempted and failed; every solve and every check is one."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def generate_inputs(wl, base_seed):
    """``(problem, truth, seed)`` per problem; the seed also initializes."""
    return [synth.generate(spec) + (spec.seed,) for spec in wl.specs(base_seed)]


def same_inputs(a, b):
    return all(
        len(pa.tensors) == len(pb.tensors)
        and all(np.array_equal(x, y) for x, y in zip(pa.tensors, pb.tensors))
        for (pa, _, _), (pb, _, _) in zip(a, b))


def _same_model(a, b):
    return (np.array_equal(a.weights, b.weights)
            and all(np.array_equal(x, y) for x, y in zip(a.factors, b.factors)))


def _timed(clock, func, *args, **kwargs):
    tic = time.perf_counter()
    out = func(*args, **kwargs)
    clock[0] += time.perf_counter() - tic
    return out


def run_round(wl, inputs, checks, workdir, probe, tracer=None):
    """Solve and score every problem once, then pass the text files through
    disk; returns the fits, the probe times, the I/O seconds and the bytes
    written.

    ``probe`` runs before the first solve and after every solve, so its
    times sample the machine's speed all through the round (see
    ``speed.py``).

    With an installed ``tracer``, the solves of the first problem are each
    preceded by an untraced twin whose wall clock (``plain_s``) is the base
    of the tracing overhead; the twins run next to each other, so they meet
    the same machine speed.
    """
    fits, results, probes = [], [], [probe()]
    for j, (problem, truth, seed) in enumerate(inputs):
        for mode in wl.modes:
            fit = _solve(wl, problem, truth, mode, j, seed, checks, tracer)
            probes.append(probe())
            if fit is not None:
                results.append((f"p{j}_{mode}", fit.pop("result")))
                fits.append(fit)
        if wl.parity is not None:
            fit_by_mode = {f["mode"]: 1.0 - f["relerr"] for f in fits if f["problem"] == j}
            if len(fit_by_mode) == 2:
                gap = abs(fit_by_mode["full"] - fit_by_mode["lra"])
                checks.record(gap < wl.parity,
                              f"problem {j}: |TenFit(full) - TenFit(lra)| = {gap:.4f}")
    io_s = _text_io(wl, inputs, results, checks, workdir)
    written = sum(p.stat().st_size for p in workdir.rglob("*") if p.is_file())
    return {"fits": fits, "probes": probes, "io_s": io_s, "bytes_written": written}


def _text_io(wl, inputs, results, checks, workdir):
    """What ``concpd generate`` (converge only) and ``concpd solve`` write,
    each file read back and checked bit-exact; returns the seconds spent in
    ``fileio``.
    """
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    clock = [0.0]
    if wl.problem_io:
        for j, (problem, truth, _) in enumerate(inputs):
            manifest = _timed(clock, fileio.save_coupled, workdir / f"p{j}", problem, truth)
            loaded, loaded_truth = _timed(clock, fileio.load_coupled, manifest)
            checks.record(
                all(np.array_equal(x, y) for x, y in zip(problem.tensors, loaded.tensors))
                and loaded.ranks == problem.ranks
                and loaded.coupled_counts == problem.coupled_counts
                and all(_same_model(x, y) for x, y in zip(truth.blocks, loaded_truth.blocks)),
                f"problem {j}: text round trip of the problem is not bit-exact")
    for name, result in results:
        out = workdir / name
        out.mkdir()
        paths = [_timed(clock, fileio.save_model, out / f"model_{s:02d}.kt", block)
                 for s, block in enumerate(result.factors.blocks)]
        trace_path = _timed(clock, fileio.save_trace, out / "trace.csv", result.trace)
        models = [_timed(clock, fileio.load_model, p) for p in paths]
        trace = _timed(clock, fileio.load_trace, trace_path)
        checks.record(
            all(_same_model(a, b) for a, b in zip(result.factors.blocks, models))
            and trace == result.trace,
            f"{name}: text round trip of the fit is not bit-exact")
    return clock[0]


def _solve(wl, data, truth, mode, j, seed, checks, tracer):
    problem = solver.CoupledProblem(data.tensors, data.ranks, data.coupled_counts,
                                    mode=mode)
    opts = solver.SolverOptions(max_iter=wl.max_iter, tol=wl.tol, seed=seed)
    plain = None
    try:
        if tracer is not None and j == 0:
            with paused(tracer):
                tic = time.perf_counter()
                solver.solve(problem, opts)
                plain = time.perf_counter() - tic
        tic = time.perf_counter()
        result = solver.solve(problem, opts)
    except (ValueError, FloatingPointError) as exc:
        checks.record(False, f"problem {j} {mode}: solve failed: {exc}")
        return None
    wall = time.perf_counter() - tic
    checks.record(True, "solve")
    tag = f"problem {j} {mode}"
    hist = result.objective_history
    checks.record(all(b <= a for a, b in zip(hist, hist[1:])),
                  f"{tag}: objective increased")
    expect_iter = wl.max_iter if wl.termination == "max_iterations" else None
    checks.record(result.termination_reason == wl.termination
                  and (expect_iter is None or result.n_iter == expect_iter),
                  f"{tag}: terminated by {result.termination_reason} after "
                  f"{result.n_iter} iterations, expected {wl.termination}")
    checks.record(all(np.isfinite(row.rel_err) for row in result.trace)
                  and np.isfinite(result.rel_err_history).all(),
                  f"{tag}: non-finite relative error")
    pi = float(np.mean(metrics.pi_per_mode(result.factors, truth)))
    return {"problem": j, "mode": mode, "wall_s": wall, "plain_s": plain,
            "iters": result.n_iter, "restarts": result.n_restarts,
            "solve_s": result.solve_seconds,
            "compress_s": result.compress_seconds,
            "relerr": float(result.trace[-1].rel_err), "pi": pi, "result": result}


def round_summary(rnd):
    """End-to-end figures of one round plus its quality numbers."""
    fits = rnd["fits"]
    out = {
        "solve_wall_s": sum(f["wall_s"] for f in fits),
        "full_solve_s": sum(f["wall_s"] for f in fits if f["mode"] == "full"),
        "io_s": rnd["io_s"],
        "tenfit": float(np.mean([1.0 - f["relerr"] for f in fits])),
    }
    for mode in ("full", "lra"):
        mine = [f for f in fits if f["mode"] == mode]
        iters = sum(f["iters"] for f in mine)
        out[f"{mode}_iters"] = iters
        out[f"{mode}_restarts"] = sum(f["restarts"] for f in mine)
        out[f"{mode}_ms_per_iter"] = (1e3 * sum(f["solve_s"] for f in mine) / iters
                                      if iters else 0.0)
        out[f"{mode}_relerr"] = float(np.mean([f["relerr"] for f in mine])) if mine else 0.0
        out[f"{mode}_pi"] = float(np.mean([f["pi"] for f in mine])) if mine else 0.0
    out["lra_compress_s"] = sum(f["compress_s"] for f in fits)
    twins = [f for f in fits if f["plain_s"] is not None]
    if twins:
        out["trace_overhead_frac"] = (sum(f["wall_s"] for f in twins)
                                      / sum(f["plain_s"] for f in twins) - 1.0)
    return out


# ---------------------------------------------------------------------------
# tracing


# (module, attribute, span name); the module binding decides which caller
# a span belongs to
TRACED = (
    (solver, "solve", "solver.solve"),
    (solver, "matricize", "tensor_ops.matricize"),
    (solver, "factors_khatri_rao", "tensor_ops.factors_khatri_rao"),
    (solver, "hadamard_gram", "tensor_ops.hadamard_gram"),
    (solver, "spectral_norm", "tensor_ops.spectral_norm"),
    (solver, "reconstruct", "kruskal.reconstruct"),
    (solver, "cpd_als", "cpd_als.cpd_als"),
    (cpd_als_module, "matricize", "cpd_als.matricize"),
    (cpd_als_module, "factors_khatri_rao", "cpd_als.factors_khatri_rao"),
    (fileio, "save_coupled", "fileio.save_coupled"),
    (fileio, "load_coupled", "fileio.load_coupled"),
    (fileio, "save_model", "fileio.save_model"),
    (fileio, "save_trace", "fileio.save_trace"),
    (synth, "generate", "synth.generate"),
    (metrics, "pi_per_mode", "metrics.pi_per_mode"),
)


_DESCRIBE = {
    "solver.solve": lambda args, kwargs, result: {"mode": args[0].mode},
    "cpd_als.cpd_als": lambda args, kwargs, result: {
        "sweeps": result.n_iter, "relerr": result.rel_err,
        "converged": result.converged},
}

COUNTED = ("tensor_ops.matricize", "tensor_ops.factors_khatri_rao",
           "tensor_ops.hadamard_gram", "tensor_ops.spectral_norm",
           "kruskal.reconstruct", "cpd_als.matricize", "cpd_als.factors_khatri_rao")


def install(tracer):
    for module, attr, name in TRACED:
        tracer.wrap(module, attr, name, _DESCRIBE.get(name))


@contextmanager
def paused(tracer):
    """Run a block with the original functions back in place."""
    tracer.uninstall()
    try:
        yield
    finally:
        install(tracer)


def layer_sums(spans):
    """Per-layer counts and seconds of one traced round."""
    out = {f"{name}.{kind}": 0.0 for name in COUNTED for kind in ("calls", "s")}
    out.update({key: 0.0 for key in (
        "solver.full_self_s", "solver.lra_self_s", "cpd_als.s", "cpd_als.sweeps",
        "cpd_als.relerr_max", "cpd_als.converged_blocks", "fileio.save_coupled_s",
        "fileio.load_coupled_s", "fileio.save_fit_s", "metrics.pi_per_mode_s")})
    kids = child_seconds(spans)
    fileio_names = {"fileio.save_coupled", "fileio.load_coupled",
                    "fileio.save_model", "fileio.save_trace"}
    for i, span in enumerate(spans):
        name = span[NAME]
        d = duration(span)
        if name in COUNTED:
            out[name + ".calls"] += 1
            out[name + ".s"] += d
        elif name == "solver.solve":
            out[f"solver.{span[ATTRS]['mode']}_self_s"] += d - kids[i]
        elif name == "cpd_als.cpd_als":
            attrs = span[ATTRS]
            out["cpd_als.s"] += d
            out["cpd_als.sweeps"] += attrs["sweeps"]
            out["cpd_als.relerr_max"] = max(out["cpd_als.relerr_max"], attrs["relerr"])
            out["cpd_als.converged_blocks"] += attrs["converged"]
        elif name in ("fileio.save_coupled", "fileio.load_coupled"):
            out[name + "_s"] += d
        elif name in ("fileio.save_model", "fileio.save_trace"):
            parent = span[PARENT]
            if parent < 0 or spans[parent][NAME] not in fileio_names:
                out["fileio.save_fit_s"] += d
        elif name == "metrics.pi_per_mode":
            out["metrics.pi_per_mode_s"] += d
    sweeps = out["cpd_als.sweeps"]
    out["cpd_als.ms_per_sweep"] = 1e3 * out["cpd_als.s"] / sweeps if sweeps else 0.0
    return out


def generate_seconds(spans):
    return sum(duration(s) for s in spans if s[NAME] == "synth.generate")


# ---------------------------------------------------------------------------
# kernel microbenchmark


def mttkrp_microbench(dims, rank, seed, min_seconds=0.15, min_reps=5):
    """Median time of the solver's unfold-then-multiply MTTKRP per mode.

    Flops (2·I·J·K·R per mode) and bytes (tensor, Khatri-Rao product and
    result, 8 bytes each) are computed from the shapes, not counted.
    """
    rng = np.random.default_rng(seed)
    t = rng.random(dims)
    factors = [rng.random((d, rank)) for d in dims]
    size = int(np.prod(dims))
    out, seconds, flops, nbytes = {}, 0.0, 0.0, 0.0
    for n, d in enumerate(dims):
        times = []
        while len(times) < min_reps or sum(times) < min_seconds:
            tic = time.perf_counter()
            tensor_ops.matricize(t, n) @ tensor_ops.factors_khatri_rao(factors, skip=n)
            times.append(time.perf_counter() - tic)
        median = float(np.median(times))
        out[f"tensor_ops.mttkrp_ms.m{n}"] = 1e3 * median
        seconds += median
        flops += 2.0 * size * rank
        nbytes += 8.0 * (size + (size // d) * rank + d * rank)
    out["tensor_ops.mttkrp_gflops"] = flops / seconds / 1e9
    out["tensor_ops.mttkrp_mb"] = nbytes / len(dims) / 1e6
    return out
