"""Benchmark entry point for concpd.

Usage, from the root of a source checkout::

    python3 benchmark/run.py --workload ladder-n8-fixed30 --seed 0 --seconds 55 --trace 0

Runs the workload in a fresh single-process Python with ``OMP_NUM_THREADS``,
``OPENBLAS_NUM_THREADS`` and ``MKL_NUM_THREADS`` set to 1 before numpy
loads, importing ``concpd`` from ``src``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` the per-layer ones from a run with the
outside-in tracer installed.  The last line of standard output is the
result JSON.  ``--workload all`` runs every workload in turn (human use; the
last line is then the last workload's result).

Exits non-zero without a result when the checkout holds no ``src/concpd``,
when BLAS is not single-threaded, or when the workload process fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
TIMEOUT_S = 175


def main(argv=None):
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    workloads = tuple(w["name"] for w in spec["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (root / "src" / "concpd" / "__init__.py").is_file():
        print(f"error: {root} holds no src/concpd; run from a concpd checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONDONTWRITEBYTECODE"] = "1"

    names = workloads if args.workload == "all" else (args.workload,)
    for name in names:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--root", str(root)]
        try:
            code = subprocess.run(cmd, env=env, cwd=root, timeout=TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            print(f"error: {name} did not finish within {TIMEOUT_S} s", file=sys.stderr)
            return 4
        if code != 0:
            print(f"error: workload {name} exited with code {code}", file=sys.stderr)
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
