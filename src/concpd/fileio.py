"""Text serialization for tensors, models, runs, and experiment tables.

All formats are plain text so artifacts stay diffable and greppable:

* ``.dtt`` — one tensor: a ``dims:`` header line, then the values in
  first-index-fastest order, whitespace-separated.
* ``.kt`` — one Kruskal model: ``order:`` / ``rank:`` / ``dims:`` header,
  a ``lambda:`` line with the core weights, then each factor matrix as a
  ``factor n:`` block of rows.
* manifest — ties a coupled set together: block count, shared-column
  counts, per-block ranks, and the tensor (and optionally ground-truth
  model) file names, relative to the manifest's directory.
* CSV tables, each a fixed header and then one row per record:
  trace (``iter,objfun,relerr,elapsed_s``), bench
  (``n,variant,repeat,pi,tenfit,time_s,objfun``), bench mean
  (``n,variant,repeats,pi,tenfit,time_s,objfun``, the mean over repeats
  per size and variant) and metrics (:data:`REPORT_FIELDS`).  Readers skip
  blank lines and ``#`` comment lines, such as the ``# workers=`` line of
  older bench files.
* MetricReport — a flat key-value block, or one row of a metrics CSV.

Floats are written with 17 significant digits, so every round trip through
these files is exact for double precision.
"""

import csv
from pathlib import Path

import numpy as np

from .kruskal import CoupledFactorSet, KruskalTensor
from .metrics import MetricReport
from .solver import CoupledProblem, TraceRow

__all__ = [
    "save_tensor",
    "load_tensor",
    "save_model",
    "load_model",
    "save_coupled",
    "load_coupled",
    "save_trace",
    "load_trace",
    "save_bench",
    "load_bench",
    "BENCH_FIELDS",
    "save_bench_mean",
    "format_report",
    "parse_report",
    "save_report",
    "load_report",
    "REPORT_FIELDS",
    "report_csv_row",
    "save_report_csv",
    "save_keyvals",
    "load_keyvals",
]

TRACE_FIELDS = ("iter", "objfun", "relerr", "elapsed_s")
BENCH_FIELDS = ("n", "variant", "repeat", "pi", "tenfit", "time_s", "objfun")
REPORT_FIELDS = ("relerr", "tenfit", "objfun", "pi_mean", "elapsed_s", "psnr", "mcc")

_VALUES_PER_LINE = 6


def _fmt(x):
    """17 significant digits: enough to reproduce any float64 exactly."""
    return format(float(x), ".17g")


def _bad(path, what):
    return ValueError(f"{path}: {what}")


def _header_line(line, key, path):
    """Parse ``key: rest`` and return ``rest``, or complain with context."""
    head, sep, rest = line.partition(":")
    if head.strip() != key or not sep:
        raise _bad(path, f"expected '{key}:' line, got {line.strip()!r}")
    return rest.strip()


def _save_csv(path, fields, rows):
    """Write a ``fields`` header line, then one CSV line per row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        writer.writerows(rows)
    return Path(path)


def _load_csv(path, fields, parse):
    """``parse`` of each row below a ``fields`` header; skips blank and ``#`` lines."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if line.strip() and not line.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader, None)
    if header is None or tuple(header) != fields:
        raise _bad(path, f"unexpected header {header}, expected {','.join(fields)}")
    try:
        return [parse(r) for r in reader]
    except (ValueError, IndexError) as exc:
        raise _bad(path, f"malformed row: {exc}") from None


# --------------------------------------------------------------------------
# tensors (.dtt)

def save_tensor(path, t):
    """Write one dense tensor as a ``.dtt`` text file."""
    t = np.asarray(t, dtype=float)
    flat = t.reshape(-1, order="F")
    with open(path, "w") as fh:
        fh.write("dims: " + " ".join(str(d) for d in t.shape) + "\n")
        for start in range(0, flat.size, _VALUES_PER_LINE):
            chunk = flat[start:start + _VALUES_PER_LINE]
            fh.write(" ".join(_fmt(v) for v in chunk) + "\n")
    return Path(path)


def load_tensor(path):
    """Read a ``.dtt`` file back into an ndarray."""
    with open(path) as fh:
        dims_line = fh.readline()
        body = fh.read()
    dims = _header_line(dims_line, "dims", path).split()
    if not dims:
        raise _bad(path, "empty dims header")
    try:
        dims = tuple(int(d) for d in dims)
        flat = np.array(body.split(), dtype=float)
    except ValueError as exc:
        raise _bad(path, f"unparseable number: {exc}") from None
    if min(dims) < 0:
        raise _bad(path, f"negative size in dims {dims}")
    expected = int(np.prod(dims))
    if flat.size != expected:
        raise _bad(path, f"{flat.size} values for dims {dims} (need {expected})")
    return flat.reshape(dims, order="F")


# --------------------------------------------------------------------------
# Kruskal models (.kt)

def save_model(path, k):
    """Write one Kruskal model as a ``.kt`` text file."""
    with open(path, "w") as fh:
        fh.write(f"order: {k.order}\n")
        fh.write(f"rank: {k.rank}\n")
        fh.write("dims: " + " ".join(str(d) for d in k.dims) + "\n")
        fh.write("lambda: " + " ".join(_fmt(w) for w in k.weights) + "\n")
        for n, fac in enumerate(k.factors):
            fh.write(f"factor {n}:\n")
            for row in fac:
                fh.write(" ".join(_fmt(v) for v in row) + "\n")
    return Path(path)


def load_model(path):
    """Read a ``.kt`` file back into a :class:`KruskalTensor`."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if len(lines) < 4:
        raise _bad(path, "truncated model file")
    try:
        order = int(_header_line(lines[0], "order", path))
        rank = int(_header_line(lines[1], "rank", path))
        dims = [int(d) for d in _header_line(lines[2], "dims", path).split()]
        weights = np.array(_header_line(lines[3], "lambda", path).split(), dtype=float)
    except ValueError as exc:
        if str(exc).startswith(f"{path}:"):
            raise
        raise _bad(path, f"unparseable header: {exc}") from None
    if len(dims) != order:
        raise _bad(path, f"{len(dims)} dims for order {order}")
    if min(dims, default=0) < 0:
        raise _bad(path, f"negative size in dims {dims}")
    if weights.size != rank:
        raise _bad(path, f"{weights.size} weights for rank {rank}")
    pos = 4
    factors = []
    for n, rows in enumerate(dims):
        if pos >= len(lines):
            raise _bad(path, f"missing 'factor {n}:' block")
        _header_line(lines[pos], f"factor {n}", path)
        block = lines[pos + 1:pos + 1 + rows]
        if len(block) < rows:
            raise _bad(path, f"factor {n} has {len(block)} rows, expected {rows}")
        try:
            fac = np.array([line.split() for line in block], dtype=float)
        except ValueError as exc:
            raise _bad(path, f"factor {n}: {exc}") from None
        fac = fac.reshape(rows, -1) if fac.size else np.zeros((rows, 0))
        if fac.shape[1] != rank:
            raise _bad(path, f"factor {n} has {fac.shape[1]} columns, expected {rank}")
        factors.append(fac)
        pos += 1 + rows
    return KruskalTensor(factors, weights)


# --------------------------------------------------------------------------
# coupled sets (tensors + manifest [+ truth models])

def save_coupled(out_dir, problem, truth=None):
    """Write a coupled problem (and optional ground truth) into ``out_dir``.

    Produces ``block_XX.dtt`` per tensor, ``truth_XX.kt`` per ground-truth
    model when ``truth`` is given, and ``manifest.txt`` naming them all.
    Returns the manifest path.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    pairs = [
        ("blocks", str(len(problem.tensors))),
        ("coupled", " ".join(str(c) for c in problem.coupled_counts)),
        ("ranks", " ".join(str(r) for r in problem.ranks)),
    ]
    for s, t in enumerate(problem.tensors):
        name = f"block_{s:02d}.dtt"
        save_tensor(out_dir / name, t)
        pairs.append((f"tensor {s}", name))
    if truth is not None:
        for s, block in enumerate(truth.blocks):
            name = f"truth_{s:02d}.kt"
            save_model(out_dir / name, block)
            pairs.append((f"truth {s}", name))
    manifest = out_dir / "manifest.txt"
    save_keyvals(manifest, pairs)
    return manifest


def load_coupled(manifest_path):
    """Read a manifest back into ``(CoupledProblem, truth-or-None)``.

    File names in the manifest are resolved relative to its directory.  The
    problem carries the stored data only, so its solver settings (``mode``,
    ``update_core``, ``als_options``) are the defaults.  The blocks are read
    one by one and written once into the problem's stacks, one per group of
    blocks with the same dims and rank (see ``CoupledProblem``).
    """
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    pairs = dict(load_keyvals(manifest_path))

    def entry(key, parse=str):
        if key not in pairs:
            raise _bad(manifest_path, f"missing '{key}:' line")
        try:
            return parse(pairs[key])
        except ValueError as exc:
            raise _bad(manifest_path, f"{key}: {exc}") from None

    def ints(text):
        return [int(v) for v in text.split()]

    n_blocks = entry("blocks", int)
    coupled = entry("coupled", ints)
    ranks = entry("ranks", ints)
    tensors = [load_tensor(base / entry(f"tensor {s}")) for s in range(n_blocks)]
    truth = None
    if "truth 0" in pairs:
        blocks = [load_model(base / entry(f"truth {s}")) for s in range(n_blocks)]
        truth = CoupledFactorSet(blocks, coupled)
        truth.validate()
    problem = CoupledProblem(tensors, ranks, coupled)
    problem.validate()
    return problem, truth


# --------------------------------------------------------------------------
# per-iteration traces

def save_trace(path, trace):
    """Write solver trace rows as CSV (``iter,objfun,relerr,elapsed_s``)."""
    return _save_csv(path, TRACE_FIELDS, (
        [row.iteration, _fmt(row.obj_fun), _fmt(row.rel_err), _fmt(row.elapsed_s)]
        for row in trace))


def load_trace(path):
    """Read a trace CSV back into a list of :class:`TraceRow`."""
    return _load_csv(path, TRACE_FIELDS, lambda r: TraceRow(
        int(r[0]), float(r[1]), float(r[2]), float(r[3])))


# --------------------------------------------------------------------------
# benchmark tables

def save_bench(path, rows):
    """Write benchmark rows, dicts keyed by :data:`BENCH_FIELDS`, as CSV."""
    return _save_csv(path, BENCH_FIELDS, (
        [row["n"], row["variant"], row["repeat"]]
        + [_fmt(row[f]) for f in BENCH_FIELDS[3:]] for row in rows))


def load_bench(path):
    """Read a bench CSV back as rows with typed values."""
    return _load_csv(path, BENCH_FIELDS, lambda r: {
        "n": int(r[0]), "variant": r[1], "repeat": int(r[2]),
        "pi": float(r[3]), "tenfit": float(r[4]),
        "time_s": float(r[5]), "objfun": float(r[6]),
    })


def save_bench_mean(path, rows):
    """Mean of bench ``rows`` over repeats per (size, variant), first-seen order."""
    groups = {}
    for row in rows:
        groups.setdefault((row["n"], row["variant"]), []).append(row)
    return _save_csv(path, ("n", "variant", "repeats") + BENCH_FIELDS[3:], (
        [n, variant, len(group)]
        + [_fmt(np.mean([r[f] for r in group])) for f in BENCH_FIELDS[3:]]
        for (n, variant), group in groups.items()))


# --------------------------------------------------------------------------
# metric reports

def format_report(report):
    """Render a :class:`MetricReport` as a flat key-value block."""
    lines = [
        f"relerr: {_fmt(report.rel_err)}",
        f"tenfit: {_fmt(report.ten_fit)}",
        f"objfun: {_fmt(report.obj_fun)}",
        f"elapsed_s: {_fmt(report.elapsed_seconds)}",
    ]
    if report.pi_per_mode is not None:
        lines.append("pi: " + " ".join(_fmt(p) for p in report.pi_per_mode))
    if report.psnr is not None:
        lines.append(f"psnr: {_fmt(report.psnr)}")
    if report.mcc is not None:
        lines.append(f"mcc: {_fmt(report.mcc)}")
    return "\n".join(lines) + "\n"


def parse_report(text, path="<report>"):
    """Inverse of :func:`format_report`."""
    pairs = dict(_parse_keyvals(text.splitlines(), path))
    for key in ("relerr", "tenfit", "objfun", "elapsed_s"):
        if key not in pairs:
            raise _bad(path, f"missing '{key}:' line")
    pi = None
    if "pi" in pairs:
        pi = [float(p) for p in pairs["pi"].split()]
    return MetricReport(
        rel_err=float(pairs["relerr"]),
        ten_fit=float(pairs["tenfit"]),
        obj_fun=float(pairs["objfun"]),
        pi_per_mode=pi,
        elapsed_seconds=float(pairs["elapsed_s"]),
        psnr=float(pairs["psnr"]) if "psnr" in pairs else None,
        mcc=float(pairs["mcc"]) if "mcc" in pairs else None,
    )


def save_report(path, report):
    with open(path, "w") as fh:
        fh.write(format_report(report))
    return Path(path)


def load_report(path):
    with open(path) as fh:
        return parse_report(fh.read(), path=path)


def report_csv_row(report):
    """One CSV row per :data:`REPORT_FIELDS`; absent metrics become empty cells.

    Per-mode PI values collapse to their mean here — the text block is the
    place to look for the full list.
    """
    pi_mean = ""
    if report.pi_per_mode is not None:
        pi_mean = _fmt(np.mean(report.pi_per_mode))
    return [
        _fmt(report.rel_err), _fmt(report.ten_fit), _fmt(report.obj_fun),
        pi_mean, _fmt(report.elapsed_seconds),
        _fmt(report.psnr) if report.psnr is not None else "",
        _fmt(report.mcc) if report.mcc is not None else "",
    ]


def save_report_csv(path, report):
    return _save_csv(path, REPORT_FIELDS, [report_csv_row(report)])


# --------------------------------------------------------------------------
# flat key-value files (manifests, resolved configs)

def save_keyvals(path, pairs):
    """Write ordered ``(key, value)`` string pairs as ``key: value`` lines."""
    with open(path, "w") as fh:
        for key, value in pairs:
            fh.write(f"{key}: {value}\n")
    return Path(path)


def load_keyvals(path):
    """Read ``key: value`` lines back as an ordered list of string pairs.

    Blank lines and ``#`` comments are skipped.  Repeated keys are legal
    (the manifest uses ``tensor 0`` .. ``tensor S-1``).
    """
    with open(path) as fh:
        return _parse_keyvals(fh.read().splitlines(), path)


def _parse_keyvals(lines, path):
    pairs = []
    for line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition(":")
        if not sep:
            raise _bad(path, f"expected 'key: value', got {stripped!r}")
        pairs.append((key.strip(), value.strip()))
    return pairs
