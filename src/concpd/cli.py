"""Command-line experiment runner: ``generate | solve | bench | eval``.

Each subcommand writes its artifacts into ``--out`` together with a
``config.resolved`` file listing every setting at its final value, so any
run can be reproduced from its output directory alone
(``concpd solve --config runs/a/config.resolved``).  Settings resolve in
order: built-in defaults, then a ``--config`` key-value file, then explicit
flags.

``bench`` sweeps a size ladder over the four solver variants (``full``,
``lra``, and their fixed-core ``-nc`` forms), one row per (size, variant,
repeat) with the repeat index added to the base seed.  Repeats may run
concurrently (``--workers``, capped by the ``RUN_THREADS`` environment
variable); the worker count is recorded in the bench CSV so timing columns
measured under concurrency are recognizable.  Reported time is the solver
wall clock — for the ``lra`` variants that includes the compression stage.
"""

import argparse
import csv
import ctypes
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import fileio
from .kruskal import CoupledFactorSet, reconstruct
from .metrics import MetricReport, pi_per_mode, rel_err
from .solver import CoupledProblem, SolverOptions, objective, solve
from .synth import SynthSpec, generate

__all__ = ["main", "limit_blas_threads"]

# variant tag -> (problem mode, update the core weights?)
VARIANTS = {
    "full": ("full", True),
    "lra": ("lra", True),
    "full-nc": ("full", False),
    "lra-nc": ("lra", False),
}

GENERATE_DEFAULTS = {
    "n": 2, "blocks": 10, "snr_db": 20.0, "seed": 0,
    "dims": None, "rank": None, "coupled": None, "out": None,
}
SOLVE_DEFAULTS = {
    "problem": None, "out": None, "mode": "full", "no_core": False,
    "max_iter": 1000, "tol": 1e-8, "delta_w": 0.9999, "seed": 0,
    "trace_every": 1,
}
BENCH_DEFAULTS = {
    "sizes": [2, 3], "variants": list(VARIANTS), "repeats": 3, "blocks": 10,
    "snr_db": 20.0, "seed": 0, "workers": 1, "blas_threads": None,
    "max_iter": 1000, "tol": 1e-8, "delta_w": 0.9999, "out": None,
    "dims": None, "rank": None, "coupled": None,
}
EVAL_DEFAULTS = {"problem": None, "factors": None, "out": None}


@contextmanager
def limit_blas_threads(n):
    """Cap the BLAS thread pool while timing; no-op if uncontrollable.

    Uses ``threadpoolctl`` where it is installed.  Without it, the thread
    setter of every OpenBLAS library loaded in the process is called
    directly, and the previous counts are put back on exit.
    """
    if n is None:
        yield
        return
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        pools = _openblas_pools()
        before = [get() for get, _ in pools]
        for _, put in pools:
            put(int(n))
        try:
            yield
        finally:
            for (_, put), count in zip(pools, before):
                put(count)
        return
    with threadpool_limits(limits=int(n)):
        yield


def _openblas_pools():
    """``(get, set)`` thread-count functions of each OpenBLAS loaded here.

    Libraries are found in ``/proc/self/maps``; elsewhere the list is empty.
    NumPy wheels bundle OpenBLAS with prefixed, 64-bit-integer symbols, so
    every naming variant is tried.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return []
    names = [(f"{pre}openblas_get_num_threads{suf}", f"{pre}openblas_set_num_threads{suf}")
             for pre in ("scipy_", "") for suf in ("64_", "_64", "")]
    pools = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in names:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, put = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                pools.append((get, put))
                break
    return pools


# --------------------------------------------------------------------------
# settings resolution


def _to_bool(text):
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _opt_int(text):
    return None if text.strip().lower() == "none" else int(text)


def _int_list(text):
    return [int(tok) for tok in text.split()]


def _opt_ints(text):
    return None if text.strip().lower() == "none" else _int_list(text)


# how config-file strings coerce back to values, per setting
_CONVERTERS = {
    "n": int, "blocks": int, "seed": int, "max_iter": int, "trace_every": int,
    "repeats": int, "workers": int,
    "snr_db": float, "tol": float, "delta_w": float,
    "no_core": _to_bool,
    "rank": _opt_int, "blas_threads": _opt_int,
    "dims": _opt_ints, "coupled": _opt_ints,
    "sizes": _int_list,
    "variants": lambda text: text.split(),
}


def resolve_settings(args, defaults, required=()):
    """Merge defaults <- config file <- explicit flags into one dict."""
    merged = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path is not None:
        for key, value in fileio.load_keyvals(config_path):
            dest = key.replace("-", "_")
            if dest == "subcommand":
                continue
            if dest not in merged:
                raise ValueError(f"{config_path}: unknown setting {key!r}")
            merged[dest] = _CONVERTERS.get(dest, str)(value)
    for dest, value in vars(args).items():
        if dest not in ("func", "config", "subcommand"):
            merged[dest] = value
    for dest in required:
        if merged.get(dest) is None:
            raise ValueError(f"missing required setting --{dest.replace('_', '-')}")
    return merged


def _format_setting(value):
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return " ".join(str(v) for v in value)
    return str(value)


def write_resolved(out_dir, subcommand, settings):
    pairs = [("subcommand", subcommand)]
    pairs += [(key.replace("_", "-"), _format_setting(settings[key]))
              for key in sorted(settings)]
    return fileio.save_keyvals(Path(out_dir) / "config.resolved", pairs)


# --------------------------------------------------------------------------
# subcommands


def _synth_spec(settings, size_factor, seed):
    dims = settings["dims"]
    coupled = settings["coupled"]
    return SynthSpec(
        n_blocks=settings["blocks"], size_factor=size_factor,
        snr_db=settings["snr_db"], seed=seed,
        dims=tuple(dims) if dims is not None else None,
        rank=settings["rank"],
        coupled=tuple(coupled) if coupled is not None else None,
    )


def cmd_generate(args):
    settings = resolve_settings(args, GENERATE_DEFAULTS, required=("out",))
    problem, truth = generate(_synth_spec(settings, settings["n"], settings["seed"]))
    out = Path(settings["out"])
    manifest = fileio.save_coupled(out, problem, truth)
    write_resolved(out, "generate", settings)
    print(f"wrote {len(problem.tensors)} blocks to {manifest}")
    return 0


def _run_report(truth, result):
    """Metric summary of one solve, timed as solver + compression wall clock."""
    last = result.trace[-1]
    pi = pi_per_mode(result.factors, truth) if truth is not None else None
    return MetricReport(
        rel_err=last.rel_err, ten_fit=1.0 - last.rel_err, obj_fun=last.obj_fun,
        pi_per_mode=pi,
        elapsed_seconds=result.solve_seconds + result.compress_seconds,
    )


def cmd_solve(args):
    settings = resolve_settings(args, SOLVE_DEFAULTS, required=("problem", "out"))
    problem, truth = fileio.load_coupled(
        settings["problem"], mode=settings["mode"],
        update_core=not settings["no_core"],
    )
    opts = SolverOptions(
        max_iter=settings["max_iter"], tol=settings["tol"],
        delta_w=settings["delta_w"], seed=settings["seed"],
        trace_every=settings["trace_every"],
    )
    result = solve(problem, opts)
    out = Path(settings["out"])
    out.mkdir(parents=True, exist_ok=True)
    for s, block in enumerate(result.factors.blocks):
        fileio.save_model(out / f"model_{s:02d}.kt", block)
    fileio.save_trace(out / "trace.csv", result.trace)
    report = _run_report(truth, result)
    fileio.save_report(out / "metrics.txt", report)
    fileio.save_report_csv(out / "metrics.csv", report)
    write_resolved(out, "solve", settings)
    sys.stdout.write(fileio.format_report(report))
    return 0


def _bench_jobs(settings):
    return [(n, variant, rep)
            for n in settings["sizes"]
            for variant in settings["variants"]
            for rep in range(settings["repeats"])]


def _nan_row(n, variant, rep):
    return {"n": n, "variant": variant, "repeat": rep, "pi": float("nan"),
            "tenfit": float("nan"), "time_s": float("nan"),
            "objfun": float("nan")}


def _worker_cap(requested):
    env = os.environ.get("RUN_THREADS")
    if not env:
        return requested
    try:
        cap = int(env)
    except ValueError:
        raise ValueError(f"RUN_THREADS must be an integer, got {env!r}") from None
    return max(1, min(requested, cap))


def cmd_bench(args):
    settings = resolve_settings(args, BENCH_DEFAULTS, required=("out",))
    unknown = [v for v in settings["variants"] if v not in VARIANTS]
    if unknown:
        raise ValueError(f"unknown variants {unknown}; pick from {list(VARIANTS)}")
    settings["workers"] = _worker_cap(settings["workers"])
    out = Path(settings["out"])
    out.mkdir(parents=True, exist_ok=True)

    def run_one(job):
        n, variant, rep = job
        mode, update_core = VARIANTS[variant]
        seed = settings["seed"] + rep
        data, truth = generate(_synth_spec(settings, n, seed))
        problem = CoupledProblem(data.tensors, data.ranks, data.coupled_counts,
                                 mode=mode, update_core=update_core)
        opts = SolverOptions(max_iter=settings["max_iter"], tol=settings["tol"],
                             delta_w=settings["delta_w"], seed=seed)
        result = solve(problem, opts)
        report = _run_report(truth, result)
        subdir = out / f"n{n}_{variant}_r{rep}"
        subdir.mkdir(parents=True, exist_ok=True)
        fileio.save_trace(subdir / "trace.csv", result.trace)
        fileio.save_report(subdir / "metrics.txt", report)
        return {"n": n, "variant": variant, "repeat": rep,
                "pi": float(np.mean(report.pi_per_mode)),
                "tenfit": report.ten_fit, "time_s": report.elapsed_seconds,
                "objfun": report.obj_fun}

    def guarded(job):
        try:
            return run_one(job), None
        except Exception as exc:  # record the failed row, keep sweeping
            return _nan_row(*job), f"n={job[0]} {job[1]} repeat {job[2]}: {exc}"

    jobs = _bench_jobs(settings)
    with limit_blas_threads(settings["blas_threads"]):
        if settings["workers"] > 1:
            with ThreadPoolExecutor(max_workers=settings["workers"]) as pool:
                outcomes = list(pool.map(guarded, jobs))
        else:
            outcomes = [guarded(job) for job in jobs]

    rows = [row for row, _ in outcomes]
    failures = [msg for _, msg in outcomes if msg is not None]
    bench_path = fileio.save_bench(out / "bench.csv", rows,
                                   workers=settings["workers"])
    _write_bench_mean(out / "bench_mean.csv", rows)
    write_resolved(out, "bench", settings)
    for msg in failures:
        print(f"failed: {msg}", file=sys.stderr)
    print(f"wrote {len(rows)} rows to {bench_path}"
          + (f" ({len(failures)} failed)" if failures else ""))
    return 1 if failures else 0


def _write_bench_mean(path, rows):
    """Mean over repeats per (size, variant), in first-seen order."""
    groups = {}
    for row in rows:
        groups.setdefault((row["n"], row["variant"]), []).append(row)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("n", "variant", "repeats", "pi", "tenfit", "time_s",
                         "objfun"))
        for (n, variant), group in groups.items():
            means = [np.mean([r[f] for r in group])
                     for f in ("pi", "tenfit", "time_s", "objfun")]
            writer.writerow([n, variant, len(group)]
                            + [format(m, ".17g") for m in means])
    return Path(path)


def cmd_eval(args):
    settings = resolve_settings(args, EVAL_DEFAULTS,
                                required=("problem", "factors", "out"))
    problem, truth = fileio.load_coupled(settings["problem"])
    model_paths = sorted(Path(settings["factors"]).glob("model_*.kt"))
    if len(model_paths) != len(problem.tensors):
        raise ValueError(
            f"{settings['factors']}: found {len(model_paths)} model files "
            f"for {len(problem.tensors)} blocks"
        )
    blocks = [fileio.load_model(p) for p in model_paths]
    estimated = CoupledFactorSet(blocks, problem.coupled_counts)
    start = time.perf_counter()
    err = rel_err(problem.tensors, [reconstruct(b) for b in blocks])
    obj = objective(problem.tensors, blocks)
    pi = pi_per_mode(estimated, truth) if truth is not None else None
    report = MetricReport(rel_err=err, ten_fit=1.0 - err, obj_fun=obj,
                          pi_per_mode=pi,
                          elapsed_seconds=time.perf_counter() - start)
    out = Path(settings["out"])
    out.mkdir(parents=True, exist_ok=True)
    fileio.save_report(out / "metrics.txt", report)
    fileio.save_report_csv(out / "metrics.csv", report)
    write_resolved(out, "eval", settings)
    sys.stdout.write(fileio.format_report(report))
    return 0


# --------------------------------------------------------------------------
# parser


def _opt(parser, flag, **kwargs):
    kwargs.setdefault("default", argparse.SUPPRESS)
    parser.add_argument(flag, **kwargs)


def _add_config_flag(parser):
    _opt(parser, "--config",
         help="key-value settings file; explicit flags override it")
    _opt(parser, "--out", help="output directory")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="concpd",
        description="Coupled nonnegative CP decomposition experiments.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    g = sub.add_parser("generate",
                       help="write a synthetic coupled problem to disk")
    _opt(g, "--n", type=int, help="size factor: block dims (8n, 9n, 10n) [2]")
    _opt(g, "--blocks", type=int, help="number of coupled tensors [10]")
    _opt(g, "--snr-db", type=float,
         help="gaussian noise level in dB; inf for clean tensors [20]")
    _opt(g, "--seed", type=int, help="generation seed [0]")
    _opt(g, "--dims", type=int, nargs=3, metavar="I",
         help="explicit block dims (overrides --n)")
    _opt(g, "--rank", type=int, help="explicit rank (overrides the I2/2 rule)")
    _opt(g, "--coupled", type=int, nargs=3, metavar="L",
         help="explicit shared-column counts (overrides the I2/4 rule)")
    _add_config_flag(g)
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="decompose a stored coupled problem")
    _opt(s, "--problem", help="manifest of the problem to decompose")
    _opt(s, "--mode", choices=("full", "lra"),
         help="work on the raw tensors or on compressed surrogates [full]")
    _opt(s, "--no-core", action="store_true",
         help="keep core weights fixed at one")
    _opt(s, "--max-iter", type=int, help="iteration cap [1000]")
    _opt(s, "--tol", type=float, help="relative-error change tolerance [1e-8]")
    _opt(s, "--delta-w", type=float, help="extrapolation safety factor [0.9999]")
    _opt(s, "--seed", type=int, help="initialization seed [0]")
    _opt(s, "--trace-every", type=int, help="iterations between trace rows [1]")
    _add_config_flag(s)
    s.set_defaults(func=cmd_solve)

    b = sub.add_parser("bench", help="sweep the size ladder over variants")
    _opt(b, "--sizes", type=int, nargs="+", help="size factors to sweep [2 3]")
    _opt(b, "--variants", nargs="+", choices=tuple(VARIANTS),
         help="solver variants to run [all four]")
    _opt(b, "--repeats", type=int, help="independent runs per cell [3]")
    _opt(b, "--blocks", type=int, help="tensors per problem [10]")
    _opt(b, "--snr-db", type=float, help="noise level in dB [20]")
    _opt(b, "--seed", type=int,
         help="base seed; repeat r uses seed + r [0]")
    _opt(b, "--workers", type=int,
         help="concurrent runs; RUN_THREADS caps this [1]")
    _opt(b, "--blas-threads", type=int,
         help="pin the BLAS pool while timing (threadpoolctl or OpenBLAS)")
    _opt(b, "--max-iter", type=int, help="iteration cap [1000]")
    _opt(b, "--tol", type=float, help="relative-error change tolerance [1e-8]")
    _opt(b, "--delta-w", type=float, help="extrapolation safety factor [0.9999]")
    _opt(b, "--dims", type=int, nargs=3, metavar="I",
         help="explicit block dims (overrides the ladder sizes)")
    _opt(b, "--rank", type=int, help="explicit rank")
    _opt(b, "--coupled", type=int, nargs=3, metavar="L",
         help="explicit shared-column counts")
    _add_config_flag(b)
    b.set_defaults(func=cmd_bench)

    e = sub.add_parser("eval", help="score stored factors against a problem")
    _opt(e, "--problem", help="manifest of the problem (with truth models)")
    _opt(e, "--factors", help="directory holding model_XX.kt files")
    _add_config_flag(e)
    e.set_defaults(func=cmd_eval)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
