"""End-to-end tests of the command-line runner (in-process via ``main``)."""

import sys

import numpy as np
import pytest

from concpd import cli
from concpd.cli import limit_blas_threads, main
from concpd.fileio import (
    load_bench,
    load_coupled,
    load_keyvals,
    load_model,
    load_report,
    load_trace,
)
from concpd.kruskal import reconstruct
from concpd.solver import CoupledProblem, SolverOptions, solve
from concpd.synth import SynthSpec


def run(*argv):
    return main([str(a) for a in argv])


def generate_small(out, *extra):
    # seed 0 converges to exact recovery on this shape; keep it fixed
    code = run("generate", "--n", 1, "--blocks", 2, "--snr-db", "inf",
               "--seed", 0, "--out", out, *extra)
    assert code == 0
    return out / "manifest.txt"


# ---------------------------------------------------------------------------
# generate


def test_generate_writes_expected_files(tmp_path, capsys):
    out = tmp_path / "a"
    code = run("generate", "--n", 1, "--blocks", 3, "--snr-db", 20,
               "--seed", 7, "--out", out)
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "block_00.dtt", "block_01.dtt", "block_02.dtt", "config.resolved",
        "manifest.txt", "truth_00.kt", "truth_01.kt", "truth_02.kt",
    ]
    assert "3 blocks" in capsys.readouterr().out
    problem, truth = load_coupled(out / "manifest.txt")
    assert problem.tensors[0].shape == (8, 9, 10)
    assert problem.ranks == [5, 5, 5]
    assert truth is not None


def test_generate_inf_snr_means_clean_tensors(tmp_path):
    manifest = generate_small(tmp_path / "clean")
    problem, truth = load_coupled(manifest)
    for t, block in zip(problem.tensors, truth.blocks):
        assert (t == reconstruct(block)).all()


def test_generate_is_deterministic(tmp_path):
    args = ("generate", "--n", 1, "--blocks", 2, "--seed", 11)
    assert run(*args, "--out", tmp_path / "one") == 0
    assert run(*args, "--out", tmp_path / "two") == 0
    for p in sorted((tmp_path / "one").iterdir()):
        twin = tmp_path / "two" / p.name
        if p.name == "config.resolved":
            continue  # records its own --out path
        assert p.read_bytes() == twin.read_bytes(), p.name


def test_generate_shape_overrides(tmp_path):
    out = tmp_path / "odd"
    code = run("generate", "--blocks", 2, "--dims", 6, 7, 8, "--rank", 3,
               "--coupled", 2, 1, 0, "--snr-db", "inf", "--seed", 0,
               "--out", out)
    assert code == 0
    problem, _ = load_coupled(out / "manifest.txt")
    assert problem.tensors[0].shape == (6, 7, 8)
    assert problem.ranks == [3, 3]
    assert problem.coupled_counts == [2, 1, 0]


# ---------------------------------------------------------------------------
# solve


def test_solve_writes_models_trace_and_metrics(tmp_path, capsys):
    manifest = generate_small(tmp_path / "p")
    capsys.readouterr()  # drop the generate banner
    out = tmp_path / "s"
    assert run("solve", "--problem", manifest, "--out", out,
               "--max-iter", 300) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "config.resolved", "metrics.csv", "metrics.txt",
        "model_00.kt", "model_01.kt", "trace.csv",
    ]
    printed = capsys.readouterr().out
    assert printed.startswith("relerr:")
    report = load_report(out / "metrics.txt")
    assert report.rel_err < 1e-3  # small noiseless problem recovers
    assert report.pi_per_mode is not None and len(report.pi_per_mode) == 3
    trace = load_trace(out / "trace.csv")
    assert trace[0].iteration == 0
    assert trace[-1].rel_err == report.rel_err


def test_solve_max_iter_zero_reports_initialization(tmp_path):
    manifest = generate_small(tmp_path / "p")
    out = tmp_path / "s0"
    assert run("solve", "--problem", manifest, "--out", out,
               "--max-iter", 0) == 0
    trace = load_trace(out / "trace.csv")
    assert len(trace) == 1 and trace[0].iteration == 0
    assert load_report(out / "metrics.txt").rel_err == trace[0].rel_err


def test_solve_lra_trace_well_formed(tmp_path):
    manifest = generate_small(tmp_path / "p")
    out = tmp_path / "slra"
    assert run("solve", "--problem", manifest, "--out", out, "--mode", "lra",
               "--max-iter", 30) == 0
    trace = load_trace(out / "trace.csv")
    iters = [row.iteration for row in trace]
    elapsed = [row.elapsed_s for row in trace]
    assert iters == sorted(set(iters))
    assert all(b >= a for a, b in zip(elapsed, elapsed[1:]))
    settings = dict(load_keyvals(out / "config.resolved"))
    assert settings["mode"] == "lra"


def test_solve_applies_mode_and_no_core_to_a_stored_problem(tmp_path):
    manifest = generate_small(tmp_path / "p")
    out = tmp_path / "lra-nc"
    assert run("solve", "--problem", manifest, "--out", out, "--mode", "lra",
               "--no-core", "--max-iter", 30) == 0
    data, _ = load_coupled(manifest)
    want = solve(CoupledProblem(data.tensors, data.ranks, data.coupled_counts,
                                mode="lra", update_core=False),
                 SolverOptions(max_iter=30))
    for s, block in enumerate(want.factors.blocks):
        got = load_model(out / f"model_{s:02d}.kt")
        assert (got.weights == 1.0).all()
        for g, w in zip(got.factors, block.factors):
            assert (g == w).all()
    assert [row.rel_err for row in load_trace(out / "trace.csv")] == \
        [row.rel_err for row in want.trace]


def test_solve_config_file_round_trip(tmp_path):
    manifest = generate_small(tmp_path / "p")
    first = tmp_path / "s1"
    assert run("solve", "--problem", manifest, "--out", first,
               "--max-iter", 25, "--seed", 4) == 0
    # rerun purely from the recorded settings: identical factors
    second = tmp_path / "s2"
    assert run("solve", "--config", first / "config.resolved",
               "--out", second) == 0
    for name in ("model_00.kt", "model_01.kt"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_solve_flags_override_config_file(tmp_path):
    manifest = generate_small(tmp_path / "p")
    config = tmp_path / "settings.txt"
    config.write_text(f"problem: {manifest}\nmax-iter: 50\nseed: 9\n")
    out = tmp_path / "s"
    assert run("solve", "--config", config, "--out", out,
               "--max-iter", 0) == 0
    settings = dict(load_keyvals(out / "config.resolved"))
    assert settings["max-iter"] == "0"  # flag beat the file
    assert settings["seed"] == "9"  # file beat the default


def test_unknown_config_key_fails(tmp_path, capsys):
    config = tmp_path / "settings.txt"
    config.write_text("cleverness: 11\n")
    assert run("solve", "--config", config, "--out", tmp_path / "s") == 1
    assert "cleverness" in capsys.readouterr().err


def test_config_value_error_names_file_and_key(tmp_path, capsys):
    config = tmp_path / "settings.txt"
    config.write_text("max-iter: abc\n")
    assert run("solve", "--config", config, "--out", tmp_path / "s") == 1
    assert f"{config}: max-iter:" in capsys.readouterr().err


def test_resolved_settings_pin_the_cli_surface(tmp_path):
    # each subcommand run with as few flags as it takes: config.resolved
    # lists the same keys as ever, and the defaults that mirror the
    # library read as SolverOptions() and SynthSpec() fields
    manifest = generate_small(tmp_path / "p")
    runs = {
        "generate": (),
        "solve": ("--problem", manifest),
        "eval": ("--problem", manifest, "--factors", tmp_path / "solve"),
        "bench": ("--sizes", 1, "--variants", "full", "--repeats", 1),
    }
    keys = {
        "generate": "blocks coupled dims n out rank seed snr-db",
        "solve": "delta-w max-iter mode no-core out problem seed tol trace-every",
        "eval": "factors out problem",
        "bench": "blas-threads blocks coupled delta-w dims max-iter out rank "
                 "repeats seed sizes snr-db tol variants",
    }
    spec, opts = SynthSpec(), SolverOptions()
    library = {"n": spec.size_factor, "blocks": spec.n_blocks,
               "snr-db": spec.snr_db, "seed": opts.seed,
               "max-iter": opts.max_iter, "tol": opts.tol,
               "delta-w": opts.delta_w, "trace-every": opts.trace_every}
    assert spec.seed == opts.seed
    for command, extra in runs.items():
        out = tmp_path / command
        assert run(command, *extra, "--out", out) == 0, command
        settings = dict(load_keyvals(out / "config.resolved"))
        assert settings.pop("subcommand") == command
        assert sorted(settings) == keys[command].split(), command
        for key in settings.keys() & library.keys():
            assert float(settings[key]) == library[key], (command, key)


@pytest.mark.parametrize("mode", ["full", "lra"])
def test_solve_names_a_block_with_an_empty_mode(tmp_path, capsys, mode):
    problem = tmp_path / "p"
    problem.mkdir()
    (problem / "block_00.dtt").write_text("dims: 0 3 4\n")
    (problem / "manifest.txt").write_text(
        "blocks: 1\ncoupled: 0 0 0\nranks: 2\ntensor 0: block_00.dtt\n")
    assert run("solve", "--problem", problem / "manifest.txt", "--mode", mode,
               "--out", tmp_path / "s") == 1
    assert "error: block 0 has an empty mode: dims (0, 3, 4)" in capsys.readouterr().err


def test_solve_missing_problem_fails_with_path(tmp_path, capsys):
    assert run("solve", "--problem", tmp_path / "nope.txt",
               "--out", tmp_path / "s") == 1
    assert "nope.txt" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval


def test_eval_of_truth_factors_is_perfect(tmp_path):
    manifest = generate_small(tmp_path / "p")
    factors = tmp_path / "asmodels"
    factors.mkdir()
    for s in range(2):
        src = tmp_path / "p" / f"truth_{s:02d}.kt"
        (factors / f"model_{s:02d}.kt").write_bytes(src.read_bytes())
    out = tmp_path / "e"
    assert run("eval", "--problem", manifest, "--factors", factors,
               "--out", out) == 0
    report = load_report(out / "metrics.txt")
    assert report.rel_err == 0.0
    assert report.ten_fit == 1.0
    assert max(report.pi_per_mode) < 1e-10


def assert_eval_matches_solve(tmp_path, manifest, max_iter):
    sdir = tmp_path / "s"
    assert run("solve", "--problem", manifest, "--out", sdir,
               "--max-iter", max_iter) == 0
    edir = tmp_path / "e"
    assert run("eval", "--problem", manifest, "--factors", sdir,
               "--out", edir) == 0
    solved = load_report(sdir / "metrics.txt")
    scored = load_report(edir / "metrics.txt")
    assert scored.rel_err == pytest.approx(solved.rel_err, rel=1e-9)
    assert scored.obj_fun == pytest.approx(solved.obj_fun, rel=1e-9)
    assert scored.pi_per_mode == pytest.approx(solved.pi_per_mode, rel=1e-9)


def test_eval_matches_solve_metrics(tmp_path):
    manifest = generate_small(tmp_path / "p")
    assert_eval_matches_solve(tmp_path, manifest, 40)


def test_eval_matches_solve_metrics_past_100_blocks(tmp_path):
    # from 101 blocks on, model file names no longer sort in block order
    assert run("generate", "--blocks", 101, "--dims", 3, 3, 3, "--rank", 2,
               "--coupled", 1, 1, 1, "--seed", 3, "--out", tmp_path / "p") == 0
    assert_eval_matches_solve(tmp_path, tmp_path / "p" / "manifest.txt", 5)


def test_eval_wrong_model_count_fails(tmp_path, capsys):
    manifest = generate_small(tmp_path / "p")
    factors = tmp_path / "empty"
    factors.mkdir()
    assert run("eval", "--problem", manifest, "--factors", factors,
               "--out", tmp_path / "e") == 1
    assert "0 model files" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bench


def test_bench_tiny_ladder(tmp_path):
    out = tmp_path / "b"
    code = run("bench", "--sizes", 1, "--variants", "full", "lra",
               "--repeats", 2, "--blocks", 2, "--max-iter", 5,
               "--seed", 1, "--out", out)
    assert code == 0
    rows = load_bench(out / "bench.csv")
    assert not (out / "bench.csv").read_text().startswith("#")
    assert [(r["n"], r["variant"], r["repeat"]) for r in rows] == [
        (1, "full", 0), (1, "full", 1), (1, "lra", 0), (1, "lra", 1),
    ]
    assert all(np.isfinite(r["pi"]) and r["time_s"] > 0 for r in rows)
    # each run owns a subdirectory with its trace
    assert (out / "n1_full_r0" / "trace.csv").exists()
    assert (out / "n1_lra_r1" / "metrics.txt").exists()
    # aggregate file: one row per (n, variant), means over repeats
    mean_lines = (out / "bench_mean.csv").read_text().splitlines()
    assert mean_lines[0] == "n,variant,repeats,pi,tenfit,time_s,objfun"
    assert len(mean_lines) == 3
    first = mean_lines[1].split(",")
    assert first[:3] == ["1", "full", "2"]
    want = np.mean([rows[0]["pi"], rows[1]["pi"]])
    assert float(first[3]) == pytest.approx(want, rel=1e-15)


def test_bench_repeat_seeds_vary_but_reruns_match(tmp_path):
    args = ("bench", "--sizes", 1, "--variants", "full", "--repeats", 2,
            "--blocks", 2, "--max-iter", 4, "--seed", 5)
    assert run(*args, "--out", tmp_path / "one") == 0
    assert run(*args, "--out", tmp_path / "two") == 0
    rows1 = load_bench(tmp_path / "one" / "bench.csv")
    rows2 = load_bench(tmp_path / "two" / "bench.csv")
    assert rows1[0]["objfun"] != rows1[1]["objfun"]  # repeats independent
    for a, b in zip(rows1, rows2):
        assert a["objfun"] == b["objfun"]  # timing aside, rerun identical
        assert a["pi"] == b["pi"]


def test_bench_records_failed_rows_and_exits_nonzero(tmp_path, capsys):
    out = tmp_path / "b"
    code = run("bench", "--sizes", 1, "--variants", "full", "--repeats", 2,
               "--blocks", 2, "--max-iter", -1, "--out", out)
    assert code == 1
    rows = load_bench(out / "bench.csv")
    assert len(rows) == 2 and all(np.isnan(r["pi"]) for r in rows)
    err = capsys.readouterr().err
    assert "failed" in err and "repeat 1" in err


def test_bench_rejects_unknown_variant(tmp_path, capsys):
    config = tmp_path / "settings.txt"
    config.write_text("variants: full turbo\n")
    assert run("bench", "--config", config, "--sizes", 1,
               "--out", tmp_path / "b") == 1
    assert "turbo" in capsys.readouterr().err


def test_limit_blas_threads_pins_openblas_and_restores():
    pools = cli._openblas_pools()
    if not pools:
        pytest.skip("no OpenBLAS library is loaded in this process")
    before = [get() for get, _ in pools]
    with limit_blas_threads(1) as pinned:
        assert [get() for get, _ in pools] == [1] * len(pools)
        assert pinned
    assert [get() for get, _ in pools] == before


def test_bench_warns_when_blas_threads_cannot_be_limited(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)
    monkeypatch.setattr(cli, "_openblas_pools", lambda: [])
    with limit_blas_threads(1) as pinned:
        assert not pinned
    assert run("bench", "--sizes", 1, "--variants", "full", "--blocks", 2,
               "--max-iter", 2, "--blas-threads", 1, "--out", tmp_path / "b") == 0
    assert "no BLAS library to limit" in capsys.readouterr().err
