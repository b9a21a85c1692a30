"""Round-trip and format tests for the text serialization layer."""

import numpy as np
import pytest

from concpd.fileio import (
    BENCH_FIELDS,
    REPORT_FIELDS,
    format_report,
    load_bench,
    load_coupled,
    load_keyvals,
    load_model,
    load_report,
    load_tensor,
    load_trace,
    parse_report,
    report_csv_row,
    save_bench,
    save_coupled,
    save_keyvals,
    save_model,
    save_report,
    save_report_csv,
    save_tensor,
    save_trace,
)
from concpd.kruskal import KruskalTensor
from concpd.metrics import MetricReport
from concpd.solver import CoupledProblem, TraceRow
from concpd.synth import SynthSpec, generate

# ---------------------------------------------------------------------------
# tensors (.dtt)


def test_tensor_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    t = rng.random((4, 5, 3)) * 1e3
    path = tmp_path / "t.dtt"
    save_tensor(path, t)
    back = load_tensor(path)
    assert back.shape == t.shape
    assert (back == t).all()


def test_tensor_round_trip_awkward_values(tmp_path):
    # values whose shortest decimal needs the full 17 significant digits,
    # plus extreme magnitudes
    t = np.array([1.0 / 3.0, np.pi, 1e-300, 1e300, 0.1, -2.5e-17]).reshape(2, 3)
    path = tmp_path / "t.dtt"
    save_tensor(path, t)
    assert (load_tensor(path) == t).all()


def test_tensor_writer_emits_17_digits(tmp_path):
    path = tmp_path / "t.dtt"
    save_tensor(path, np.array([[1.0 / 3.0]]))
    assert "0.33333333333333331" in path.read_text()


def test_tensor_values_stored_first_index_fastest(tmp_path):
    # hand-written file: the first dimension varies fastest in the stream
    path = tmp_path / "t.dtt"
    path.write_text("dims: 2 3\n10 20 30\n40 50 60\n")
    t = load_tensor(path)
    assert t.shape == (2, 3)
    expected = np.array([[10.0, 30.0, 50.0], [20.0, 40.0, 60.0]])
    assert (t == expected).all()
    # and the writer produces the same layout back
    save_tensor(path, expected)
    tokens = path.read_text().split("\n")[1].split()
    assert tokens[:2] == ["10", "20"]


def test_tensor_reader_accepts_scientific_notation(tmp_path):
    path = tmp_path / "t.dtt"
    path.write_text("dims: 2 2\n1e0 2.5E-1\n-3e2 +4.0e+0\n")
    t = load_tensor(path)
    assert (t == np.array([[1.0, -300.0], [0.25, 4.0]])).all()


def test_tensor_reader_rejects_bad_files(tmp_path):
    bad_header = tmp_path / "a.dtt"
    bad_header.write_text("shape: 2 2\n1 2 3 4\n")
    with pytest.raises(ValueError, match="a.dtt"):
        load_tensor(bad_header)

    wrong_count = tmp_path / "b.dtt"
    wrong_count.write_text("dims: 2 2\n1 2 3\n")
    with pytest.raises(ValueError, match="3 values"):
        load_tensor(wrong_count)

    not_numbers = tmp_path / "c.dtt"
    not_numbers.write_text("dims: 2 1\n1 spam\n")
    with pytest.raises(ValueError, match="c.dtt"):
        load_tensor(not_numbers)

    with pytest.raises(OSError):
        load_tensor(tmp_path / "missing.dtt")


# ---------------------------------------------------------------------------
# models (.kt)


def make_model(seed=0, dims=(4, 3, 5), rank=2):
    rng = np.random.default_rng(seed)
    return KruskalTensor([rng.random((d, rank)) for d in dims], rng.random(rank))


def test_model_round_trip_is_exact(tmp_path):
    k = make_model()
    path = tmp_path / "m.kt"
    save_model(path, k)
    back = load_model(path)
    assert back.order == k.order and back.rank == k.rank
    assert (back.weights == k.weights).all()
    for got, want in zip(back.factors, k.factors):
        assert (got == want).all()


def test_model_file_layout(tmp_path):
    path = tmp_path / "m.kt"
    path.write_text(
        "order: 2\n"
        "rank: 2\n"
        "dims: 3 2\n"
        "lambda: 1.5 0.5\n"
        "factor 0:\n"
        "1 2\n"
        "3 4\n"
        "5 6\n"
        "factor 1:\n"
        "7 8\n"
        "9 10\n"
    )
    k = load_model(path)
    assert (k.weights == [1.5, 0.5]).all()
    assert (k.factors[0] == [[1, 2], [3, 4], [5, 6]]).all()
    assert (k.factors[1] == [[7, 8], [9, 10]]).all()


def test_model_reader_rejects_bad_files(tmp_path):
    path = tmp_path / "m.kt"

    path.write_text("order: 2\nrank: 2\n")
    with pytest.raises(ValueError, match="truncated"):
        load_model(path)

    path.write_text("order: 2\nrank: 2\ndims: 3\nlambda: 1 1\n")
    with pytest.raises(ValueError, match="1 dims for order 2"):
        load_model(path)

    path.write_text("order: 1\nrank: 2\ndims: 2\nlambda: 1\nfactor 0:\n1 2\n1 2\n")
    with pytest.raises(ValueError, match="1 weights for rank 2"):
        load_model(path)

    path.write_text("order: 1\nrank: 2\ndims: 2\nlambda: 1 1\nfactor 0:\n1 2\n")
    with pytest.raises(ValueError, match="factor 0 has 1 rows"):
        load_model(path)

    path.write_text("order: 1\nrank: 2\ndims: 1\nlambda: 1 1\nfactor 0:\n1 2 3\n")
    with pytest.raises(ValueError, match="3 columns"):
        load_model(path)


def test_model_reader_names_the_file_on_header_errors(tmp_path):
    path = tmp_path / "m.kt"
    # int() fails: the error is re-worded as an unparseable header
    path.write_text("order: 1\nrank: two\ndims: 2\nlambda: 1 1\nfactor 0:\n1 2\n1 2\n")
    with pytest.raises(ValueError, match="unparseable header") as info:
        load_model(path)
    assert str(info.value).startswith(f"{path}: ")
    # the header reader's own error already names the file and passes as is
    path.write_text("order: 1\nrank: 2\ndims: 2\nfactor 0:\n1 2\n1 2\n")
    with pytest.raises(ValueError, match="expected 'lambda:' line") as info:
        load_model(path)
    assert str(info.value).startswith(f"{path}: ")
    assert "unparseable" not in str(info.value)


# ---------------------------------------------------------------------------
# coupled sets + manifest


def test_coupled_round_trip(tmp_path):
    spec = SynthSpec(n_blocks=3, size_factor=1, snr_db=20.0, seed=5)
    problem, truth = generate(spec)
    manifest = save_coupled(tmp_path / "run", problem, truth)
    assert manifest.name == "manifest.txt"

    loaded, loaded_truth = load_coupled(manifest)
    # solver settings are not stored data: the problem has the defaults
    assert loaded.mode == "full" and loaded.update_core is True
    assert loaded.ranks == problem.ranks
    assert loaded.coupled_counts == problem.coupled_counts
    for got, want in zip(loaded.tensors, problem.tensors):
        assert (got == want).all()
    for got, want in zip(loaded_truth.blocks, truth.blocks):
        assert (got.weights == want.weights).all()
        for g, w in zip(got.factors, want.factors):
            assert (g == w).all()
    # shared columns survive the trip bit-exactly
    loaded_truth.validate()


def test_loaded_tensors_are_views_of_one_stack(tmp_path):
    problem, _ = generate(SynthSpec(n_blocks=3, size_factor=1, seed=6))
    loaded, _ = load_coupled(save_coupled(tmp_path, problem))
    stack = loaded.tensors[0].base
    assert stack.shape == (3, 8, 9, 10) and stack.flags.c_contiguous
    assert all(np.shares_memory(t, stack) for t in loaded.tensors)
    again = CoupledProblem(loaded.tensors, loaded.ranks, loaded.coupled_counts, mode="lra")
    assert all(np.shares_memory(t, stack) for t in again.tensors)


def test_coupled_without_truth(tmp_path):
    problem, _ = generate(SynthSpec(n_blocks=2, size_factor=1, seed=1))
    manifest = save_coupled(tmp_path, problem)
    loaded, truth = load_coupled(manifest)
    assert truth is None
    assert loaded.n_blocks == 2
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == ["block_00.dtt", "block_01.dtt", "manifest.txt"]


def test_manifest_missing_lines_rejected(tmp_path):
    problem, _ = generate(SynthSpec(n_blocks=2, size_factor=1, seed=2))
    manifest = save_coupled(tmp_path, problem)
    text = manifest.read_text()

    manifest.write_text(text.replace("coupled:", "shared:"))
    with pytest.raises(ValueError, match="coupled"):
        load_coupled(manifest)

    manifest.write_text(text.replace("tensor 1:", "tensor 9:"))
    with pytest.raises(ValueError, match="tensor 1"):
        load_coupled(manifest)


def test_manifest_bad_entries_name_manifest_and_key(tmp_path):
    problem, truth = generate(SynthSpec(n_blocks=2, size_factor=1, seed=3))
    manifest = save_coupled(tmp_path, problem, truth)
    text = manifest.read_text()

    manifest.write_text(text.replace("truth 1:", "# truth 1:"))
    with pytest.raises(ValueError, match="manifest.txt: missing 'truth 1:'"):
        load_coupled(manifest)

    manifest.write_text(text.replace("blocks: 2", "blocks: two"))
    with pytest.raises(ValueError, match="manifest.txt: blocks: .*'two'"):
        load_coupled(manifest)

    manifest.write_text(text.replace("ranks: 5 5", "ranks: 5 five"))
    with pytest.raises(ValueError, match="manifest.txt: ranks: .*'five'"):
        load_coupled(manifest)


# ---------------------------------------------------------------------------
# trace CSV


def test_trace_round_trip(tmp_path):
    trace = [
        TraceRow(0, 12.5, 0.5, 0.001),
        TraceRow(5, 1.0 / 3.0, 1e-9, 0.25),
        TraceRow(7, 0.25, 1e-12, 0.375),
    ]
    path = tmp_path / "trace.csv"
    save_trace(path, trace)
    assert load_trace(path) == trace
    assert path.read_text().splitlines()[0] == "iter,objfun,relerr,elapsed_s"
    # the reader skips comment and blank lines, as the bench reader does
    path.write_text("# solver trace\n" + path.read_text() + "\n")
    assert load_trace(path) == trace


def test_trace_rejects_wrong_header(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("iteration,obj,rel,sec\n0,1,1,0\n")
    with pytest.raises(ValueError, match="header"):
        load_trace(path)


# ---------------------------------------------------------------------------
# bench CSV


def bench_row(n, variant, repeat, seed):
    rng = np.random.default_rng(seed)
    return {
        "n": n, "variant": variant, "repeat": repeat,
        "pi": rng.random(), "tenfit": rng.random(),
        "time_s": rng.random() * 10, "objfun": rng.random() * 100,
    }


def test_bench_round_trip_with_worker_flag(tmp_path):
    rows = [bench_row(2, "full", 0, 1), bench_row(2, "lra", 0, 2),
            bench_row(3, "full-nc", 1, 3)]
    path = tmp_path / "bench.csv"
    save_bench(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(BENCH_FIELDS)
    assert load_bench(path) == rows
    # files written before the worker count was dropped lead with it
    path.write_text("# workers=4\n" + path.read_text())
    assert load_bench(path) == rows


def test_bench_reader_defaults_to_one_worker(tmp_path):
    path = tmp_path / "bench.csv"
    path.write_text(",".join(BENCH_FIELDS) + "\n2,full,0,0.1,0.9,1.5,3.25\n")
    rows = load_bench(path)
    assert rows == [{"n": 2, "variant": "full", "repeat": 0, "pi": 0.1,
                     "tenfit": 0.9, "time_s": 1.5, "objfun": 3.25}]


def test_bench_reader_skips_comment_lines(tmp_path):
    path = tmp_path / "bench.csv"
    path.write_text("# workers=2\n" + ",".join(BENCH_FIELDS) + "\n"
                    "2,full,0,0.1,0.9,1.5,3.25\n# a note\n"
                    "2,lra,1,0.2,0.8,0.5,4.5\n")
    assert [(r["variant"], r["repeat"]) for r in load_bench(path)] == [
        ("full", 0), ("lra", 1)]


# ---------------------------------------------------------------------------
# metric reports


def test_report_text_round_trip(tmp_path):
    report = MetricReport(rel_err=1e-4, ten_fit=0.9999, obj_fun=1.0 / 3.0,
                          pi_per_mode=[0.01, 0.02, 0.03],
                          elapsed_seconds=1.25, psnr=31.5, mcc=0.97)
    path = tmp_path / "metrics.txt"
    save_report(path, report)
    assert load_report(path) == report


def test_report_omits_absent_metrics():
    report = MetricReport(rel_err=0.5, ten_fit=0.5, obj_fun=2.0,
                          pi_per_mode=None, elapsed_seconds=0.1)
    text = format_report(report)
    assert "psnr" not in text and "mcc" not in text and "pi" not in text
    assert parse_report(text) == report


def test_report_csv_row(tmp_path):
    report = MetricReport(rel_err=0.25, ten_fit=0.75, obj_fun=8.0,
                          pi_per_mode=[0.1, 0.3], elapsed_seconds=2.0)
    row = report_csv_row(report)
    assert len(row) == len(REPORT_FIELDS)
    assert float(row[REPORT_FIELDS.index("pi_mean")]) == pytest.approx(0.2)
    assert row[REPORT_FIELDS.index("psnr")] == ""

    path = tmp_path / "metrics.csv"
    save_report_csv(path, report)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(REPORT_FIELDS)
    assert lines[1].split(",")[0] == "0.25"


def test_report_parse_requires_core_fields():
    with pytest.raises(ValueError, match="tenfit"):
        parse_report("relerr: 0.5\nobjfun: 1\nelapsed_s: 0\n")


# ---------------------------------------------------------------------------
# key-value files


def test_keyvals_round_trip_preserves_order_and_repeats(tmp_path):
    pairs = [("seed", "7"), ("tensor 0", "a.dtt"), ("tensor 1", "b.dtt"),
             ("seed", "8")]
    path = tmp_path / "config.resolved"
    save_keyvals(path, pairs)
    assert load_keyvals(path) == pairs


def test_keyvals_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "kv.txt"
    path.write_text("# header comment\n\nmode: lra\n  # indented comment\n")
    assert load_keyvals(path) == [("mode", "lra")]


def test_keyvals_rejects_missing_colon(tmp_path):
    path = tmp_path / "kv.txt"
    path.write_text("just a line\n")
    with pytest.raises(ValueError, match="key: value"):
        load_keyvals(path)
