"""Command-line experiment runner: ``generate | solve | bench | eval``.

Each subcommand writes its artifacts into ``--out`` together with a
``config.resolved`` file listing every setting at its final value, so any
run can be reproduced from its output directory alone
(``concpd solve --config runs/a/config.resolved``).  Settings resolve in
order: built-in defaults, then a ``--config`` key-value file, then explicit
flags.

Every setting is declared once, in :data:`SETTINGS`: its parse function,
default, help and whether a run needs it.  Defaults that mirror the library
are read from :class:`SolverOptions` and :class:`SynthSpec`.
:data:`COMMANDS` names the settings of each subcommand; the flags, the
``--config`` conversion, the required-setting check and ``config.resolved``
all derive from these two tables.

``bench`` sweeps a size ladder over the four solver variants (``full``,
``lra``, and their fixed-core ``-nc`` forms), one row per (size, variant,
repeat) with the repeat index added to the base seed.  Runs go one after
another in this process, so no timing column is measured under
concurrency.  Reported time is the solver wall clock — for the ``lra``
variants that includes the compression stage.
"""

import argparse
import ctypes
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import fileio
from .kruskal import CoupledFactorSet, reconstruct
from .metrics import MetricReport, pi_per_mode, rel_err
from .solver import CoupledProblem, SolverOptions, objective, solve
from .synth import SynthSpec, generate

__all__ = ["main", "limit_blas_threads"]

# block s's model file: ``solve`` writes it, ``eval`` reads it
_MODEL_FILE = "model_{:02d}.kt"

# variant tag -> (problem mode, update the core weights?)
VARIANTS = {
    "full": ("full", True),
    "lra": ("lra", True),
    "full-nc": ("full", False),
    "lra-nc": ("lra", False),
}


@contextmanager
def limit_blas_threads(n):
    """Cap the BLAS thread pool while timing; yields whether a cap holds.

    Uses ``threadpoolctl`` where it is installed.  Without it, the thread
    setter of every OpenBLAS library loaded in the process is called
    directly, and the previous counts are put back on exit.  The context
    value is ``False`` when ``n`` is ``None`` or when no BLAS library could
    be reached, in which case the pool runs at its default size.
    """
    if n is None:
        yield False
        return
    try:
        from threadpoolctl import threadpool_info, threadpool_limits
    except ImportError:
        pools = _openblas_pools()
        before = [get() for get, _ in pools]
        for _, put in pools:
            put(int(n))
        try:
            yield bool(pools)
        finally:
            for (_, put), count in zip(pools, before):
                put(count)
        return
    with threadpool_limits(limits=int(n)):
        yield any(lib["user_api"] == "blas" for lib in threadpool_info())


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
# settings


def _to_bool(text):
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


class _Setting(NamedTuple):
    """One setting; ``parse`` reads one token (a boolean is a bare flag)."""

    parse: object
    default: object
    help: str
    nargs: object = None
    choices: tuple = None
    metavar: str = None
    required: bool = False


SETTINGS = {
    "problem": _Setting(str, None, "manifest of a stored problem", required=True),
    "factors": _Setting(str, None, "directory of model_XX.kt files", required=True),
    "out": _Setting(str, None, "output directory", required=True),
    "n": _Setting(int, SynthSpec.size_factor, "size factor: block dims (8n, 9n, 10n)"),
    "sizes": _Setting(int, (2, 3), "size factors to sweep", nargs="+"),
    "variants": _Setting(str, tuple(VARIANTS), "solver variants to run",
                         nargs="+", choices=tuple(VARIANTS)),
    "repeats": _Setting(int, 3, "independent runs per cell"),
    "blocks": _Setting(int, SynthSpec.n_blocks, "number of coupled tensors"),
    "snr_db": _Setting(float, SynthSpec.snr_db,
                       "gaussian noise level in dB; inf for clean tensors"),
    "dims": _Setting(int, None, "explicit block dims (overrides the size factor)",
                     nargs=3, metavar="I"),
    "rank": _Setting(int, None, "explicit rank (overrides the I2/2 rule)"),
    "coupled": _Setting(int, None,
                        "explicit shared-column counts (overrides the I2/4 rule)",
                        nargs=3, metavar="L"),
    "mode": _Setting(str, "full",
                     "work on the raw tensors or on compressed surrogates",
                     choices=("full", "lra")),
    "no_core": _Setting(_to_bool, False, "keep core weights fixed at one"),
    "seed": _Setting(int, SolverOptions.seed,
                     "generation and initialization seed; bench repeat r "
                     "uses seed + r"),
    "blas_threads": _Setting(int, None,
                             "pin the BLAS pool while timing (threadpoolctl or "
                             "OpenBLAS); warns when neither is found"),
    "max_iter": _Setting(int, SolverOptions.max_iter, "iteration cap"),
    "tol": _Setting(float, SolverOptions.tol, "relative-error change tolerance"),
    "delta_w": _Setting(float, SolverOptions.delta_w, "extrapolation safety factor"),
    "trace_every": _Setting(int, SolverOptions.trace_every,
                            "iterations between trace rows"),
}


def _format_setting(value):
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return " ".join(str(v) for v in value)
    return str(value)


def _parse_setting(setting, text):
    """Inverse of :func:`_format_setting` for one config-file value."""
    if setting.default is None and text.lower() == "none":
        return None
    tokens = text.split() if setting.nargs else [text]
    values = [setting.parse(tok) for tok in tokens]
    for value in values:
        if setting.choices and value not in setting.choices:
            raise ValueError(f"{value!r} is not one of {', '.join(setting.choices)}")
    return values if setting.nargs else values[0]


def resolve_settings(args, names):
    """Merge defaults <- config file <- explicit flags into one dict."""
    merged = {name: SETTINGS[name].default for name in names}
    config_path = getattr(args, "config", None)
    if config_path is not None:
        for key, value in fileio.load_keyvals(config_path):
            name = key.replace("-", "_")
            if name == "subcommand":
                continue
            if name not in merged:
                raise ValueError(f"{config_path}: unknown setting {key!r}")
            try:
                merged[name] = _parse_setting(SETTINGS[name], value)
            except ValueError as exc:
                raise ValueError(f"{config_path}: {key}: {exc}") from None
    for name, value in vars(args).items():
        if name not in ("config", "subcommand"):
            merged[name] = value
    for name in names:
        if SETTINGS[name].required and merged[name] is None:
            raise ValueError(f"missing required setting --{name.replace('_', '-')}")
    return merged


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


def cmd_generate(settings):
    problem, truth = generate(_synth_spec(settings, settings["n"], settings["seed"]))
    manifest = fileio.save_coupled(settings["out"], problem, truth)
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


def _save_report(out_dir, report):
    """Write ``metrics.txt`` and ``metrics.csv`` and echo the report."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fileio.save_report(out / "metrics.txt", report)
    fileio.save_report_csv(out / "metrics.csv", report)
    sys.stdout.write(fileio.format_report(report))


def cmd_solve(settings):
    data, truth = fileio.load_coupled(settings["problem"])
    problem = CoupledProblem(data.tensors, data.ranks, data.coupled_counts,
                             mode=settings["mode"], update_core=not settings["no_core"])
    opts = SolverOptions(
        max_iter=settings["max_iter"], tol=settings["tol"],
        delta_w=settings["delta_w"], seed=settings["seed"],
        trace_every=settings["trace_every"],
    )
    result = solve(problem, opts)
    out = Path(settings["out"])
    out.mkdir(parents=True, exist_ok=True)
    for s, block in enumerate(result.factors.blocks):
        fileio.save_model(out / _MODEL_FILE.format(s), block)
    fileio.save_trace(out / "trace.csv", result.trace)
    _save_report(out, _run_report(truth, result))
    return 0


def cmd_bench(settings):
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
            nan_row = dict(zip(fileio.BENCH_FIELDS, job + (float("nan"),) * 4))
            return nan_row, f"n={job[0]} {job[1]} repeat {job[2]}: {exc}"

    jobs = [(n, variant, rep)
            for n in settings["sizes"]
            for variant in settings["variants"]
            for rep in range(settings["repeats"])]
    with limit_blas_threads(settings["blas_threads"]) as pinned:
        if settings["blas_threads"] is not None and not pinned:
            print(f"warning: found no BLAS library to limit to "
                  f"{settings['blas_threads']} thread(s); timings use the "
                  f"default pool", file=sys.stderr)
        outcomes = [guarded(job) for job in jobs]

    rows = [row for row, _ in outcomes]
    failures = [msg for _, msg in outcomes if msg is not None]
    bench_path = fileio.save_bench(out / "bench.csv", rows)
    fileio.save_bench_mean(out / "bench_mean.csv", rows)
    for msg in failures:
        print(f"failed: {msg}", file=sys.stderr)
    print(f"wrote {len(rows)} rows to {bench_path}"
          + (f" ({len(failures)} failed)" if failures else ""))
    return 1 if failures else 0


def cmd_eval(settings):
    problem, truth = fileio.load_coupled(settings["problem"])
    factors = Path(settings["factors"])
    found = len(list(factors.glob("model_*.kt")))
    if found != problem.n_blocks:
        raise ValueError(f"{settings['factors']}: found {found} model files "
                         f"for {problem.n_blocks} blocks")
    blocks = [fileio.load_model(factors / _MODEL_FILE.format(s))
              for s in range(problem.n_blocks)]
    estimated = CoupledFactorSet(blocks, problem.coupled_counts)
    start = time.perf_counter()
    err = rel_err(problem.tensors, [reconstruct(b) for b in blocks])
    obj = objective(problem.tensors, blocks)
    pi = pi_per_mode(estimated, truth) if truth is not None else None
    report = MetricReport(rel_err=err, ten_fit=1.0 - err, obj_fun=obj,
                          pi_per_mode=pi,
                          elapsed_seconds=time.perf_counter() - start)
    _save_report(settings["out"], report)
    return 0


# --------------------------------------------------------------------------
# parser


# subcommand -> (run, help, its settings in --help order)
COMMANDS = {
    "generate": (cmd_generate, "write a synthetic coupled problem to disk",
                 ("n", "blocks", "snr_db", "seed", "dims", "rank", "coupled",
                  "out")),
    "solve": (cmd_solve, "decompose a stored coupled problem",
              ("problem", "mode", "no_core", "max_iter", "tol", "delta_w",
               "seed", "trace_every", "out")),
    "bench": (cmd_bench, "sweep the size ladder over variants",
              ("sizes", "variants", "repeats", "blocks", "snr_db", "seed",
               "blas_threads", "max_iter", "tol", "delta_w", "dims", "rank",
               "coupled", "out")),
    "eval": (cmd_eval, "score stored factors against a problem",
             ("problem", "factors", "out")),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="concpd",
        description="Coupled nonnegative CP decomposition experiments.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for command, (_, help_text, names) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", default=argparse.SUPPRESS,
                       help="key-value settings file; explicit flags override it")
        for name in names:
            s = SETTINGS[name]
            if s.parse is _to_bool:
                kwargs = {"action": "store_true"}
            else:
                kwargs = {"type": s.parse, "nargs": s.nargs,
                          "choices": s.choices, "metavar": s.metavar}
            shown = s.help
            if s.default is not None and s.default is not False:
                shown += f" [{_format_setting(s.default)}]"
            p.add_argument("--" + name.replace("_", "-"),
                           default=argparse.SUPPRESS, help=shown, **kwargs)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    run, _, names = COMMANDS[args.subcommand]
    try:
        settings = resolve_settings(args, names)
        code = run(settings)
        pairs = [("subcommand", args.subcommand)]
        pairs += [(key.replace("_", "-"), _format_setting(value))
                  for key, value in sorted(settings.items())]
        fileio.save_keyvals(Path(settings["out"]) / "config.resolved", pairs)
        return code
    except (OSError, ValueError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
