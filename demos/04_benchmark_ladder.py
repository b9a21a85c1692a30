"""Drive the command-line benchmark over a small size ladder and print the
aggregated table — the same sweep the `concpd bench` command runs at scale."""

import tempfile
from pathlib import Path

from concpd.cli import main
from concpd.fileio import load_bench


def main_demo():
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "ladder"
        code = main([
            "bench",
            "--sizes", "1", "2",
            "--variants", "full", "lra", "full-nc", "lra-nc",
            "--repeats", "3",
            "--blocks", "3",
            "--snr-db", "20",
            "--max-iter", "150",
            "--seed", "0",
            "--out", str(out),
        ])
        print(f"bench exit code {code}")

        rows = load_bench(out / "bench.csv")
        print(f"{len(rows)} rows measured one after another\n")

        print(f"{'n':>3s} {'variant':10s} {'PI':>8s} {'TenFit':>8s} "
              f"{'ms':>8s} {'ObjFun':>10s}")
        for line in (out / "bench_mean.csv").read_text().splitlines()[1:]:
            n, variant, _, pi, tenfit, time_s, objfun = line.split(",")
            print(f"{n:>3s} {variant:10s} {float(pi):8.4f} "
                  f"{float(tenfit):8.4f} {1e3 * float(time_s):8.1f} "
                  f"{float(objfun):10.2f}")

        print("\nreading the table: core updates (no -nc) buy accuracy.")
        print("lra times include compression, which dominates at these tiny")
        print("sizes — the payoff shows from size factor 4 up (see demo 03).")


if __name__ == "__main__":
    main_demo()
