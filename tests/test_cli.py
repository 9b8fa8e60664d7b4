"""Command-line tests: the full subcommand chain on real files, flag
defaults, usage errors (exit 2), runtime errors (exit 1), the `--solver`
flag, thread determinism of output bytes, the default worker count, and
the settings and paths checked before any input is read.

Everything drives `main(argv)` in process; files live in tmp_path.
"""

import csv
import os
import subprocess
import sys

import numpy as np
import pytest

import lrma_uq
from lrma_uq import (
    PipelineConfig,
    WindowConfig,
    add_gaussian,
    blas,
    denoise_with_uq,
    read_cube,
    synth_lowrank_cube,
    write_cube,
)
from lrma_uq.cli import _build_parser, _resolve_threads, main
from oracles import read_report_csv

SMALL_WINDOW = ["--window", "6", "--step", "3", "--rank", "2"]


def run(capsys, *argv) -> tuple[int, str]:
    """Invoke the CLI; returns (exit code, stderr text)."""
    code = main(list(argv))
    return code, capsys.readouterr().err


def make_clean(capsys, tmp_path, dims="12,12,6"):
    clean = tmp_path / "clean.hsic"
    code, err = run(capsys, "simulate", "--dims", dims, "--rank", "2",
                    "--seed", "2", "--out", str(clean))
    assert code == 0 and err == ""
    return clean


def write_samples_csv(path, n=100, seed=0):
    values = np.random.default_rng(seed).standard_normal(n)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["residual"])
        for v in values:
            writer.writerow([f"{v:.17g}"])


class TestEndToEndChain:
    def test_full_chain_exits_zero_and_writes_parsable_files(self, capsys, tmp_path):
        clean = make_clean(capsys, tmp_path)
        noisy = tmp_path / "noisy.hsic"
        code, err = run(capsys, "noise", "--in", str(clean), "--sigma0", "0.05",
                        "--impulse-ratio", "0.01", "--seed", "3", "--out", str(noisy))
        assert code == 0 and err == ""

        denoised = tmp_path / "denoised.hsic"
        variance = tmp_path / "variance.hsic"
        code, err = run(capsys, "denoise", "--in", str(noisy), "--out", str(denoised),
                        "--variance-out", str(variance), "--sigma0", "0.05",
                        *SMALL_WINDOW, "--threads", "1")
        assert code == 0 and err == ""
        assert read_cube(str(denoised)).dims == (12, 12, 6)
        assert (read_cube(str(variance)).data >= 0).all()

        mc_report = tmp_path / "mc.csv"
        code, err = run(capsys, "mc", "--clean", str(clean), "--sigma0", "0.05",
                        "--trials", "3", "--seed", "1", "--report", str(mc_report),
                        *SMALL_WINDOW, "--threads", "1")
        assert code == 0 and err == ""
        header, rows = read_report_csv(str(mc_report))
        assert header == ["sigma0", "impulse_ratio", "T", "mean_coverage", "std_coverage"]
        assert rows[0][2] == 3.0
        assert 0.0 <= rows[0][3] <= 1.0

        samples = tmp_path / "samples.csv"
        write_samples_csv(samples)
        qq_report = tmp_path / "qq.csv"
        code, err = run(capsys, "validate", "qq", "--samples", str(samples),
                        "--report", str(qq_report))
        assert code == 0 and err == ""
        header, rows = read_report_csv(str(qq_report))
        assert header == ["theoretical", "empirical"]
        theo = [r[0] for r in rows]
        assert theo == sorted(theo) and len(rows) == 100

        sw_report = tmp_path / "sw.csv"
        code, err = run(capsys, "validate", "sw", "--samples", str(samples),
                        "--report", str(sw_report))
        assert code == 0 and err == ""
        header, rows = read_report_csv(str(sw_report))
        assert header == ["n", "sw_statistic", "p_value"]
        assert rows[0][0] == 100.0

        rank_report = tmp_path / "ranks.csv"
        code, err = run(capsys, "sweep", "rank", "--clean", str(clean),
                        "--sigma0", "0.05", "--grid", "1,2", "--trials", "2",
                        "--report", str(rank_report),
                        "--window", "6", "--step", "3", "--threads", "1")
        assert code == 0 and err == ""
        header, rows = read_report_csv(str(rank_report))
        assert header == ["rank", "mean_coverage"]
        assert [r[0] for r in rows] == [1.0, 2.0]

        impulse_report = tmp_path / "impulse.csv"
        code, err = run(capsys, "sweep", "impulse", "--clean", str(clean),
                        "--sigma0-grid", "0.05", "--ratio-grid", "0,0.02",
                        "--trials", "2", "--report", str(impulse_report),
                        *SMALL_WINDOW, "--threads", "1")
        assert code == 0 and err == ""
        header, rows = read_report_csv(str(impulse_report))
        assert header == ["sigma0", "impulse_ratio", "mean_coverage", "std_coverage"]
        assert len(rows) == 2

        bench_report = tmp_path / "bench.csv"
        code, err = run(capsys, "bench", "--clean", str(clean), "--sigma0", "0.05",
                        "--trials", "1", "--report", str(bench_report),
                        *SMALL_WINDOW, "--threads", "1")
        assert code == 0 and err == ""
        header, rows = read_report_csv(str(bench_report))
        assert header == ["mc_trials", "mc_total_s", "lrma_only_s", "lrma_plus_uq_s"]
        assert all(v > 0 for v in rows[0])

    def test_simulate_output_is_seed_deterministic(self, capsys, tmp_path):
        a = make_clean(capsys, tmp_path)
        data_a = (tmp_path / "clean.hsic").read_bytes()
        a.unlink()
        make_clean(capsys, tmp_path)
        assert (tmp_path / "clean.hsic").read_bytes() == data_a

    @pytest.mark.parametrize("budget", ["0", "0.1"], ids=["tsvd", "godec"])
    def test_denoise_of_a_file_matches_the_library_in_memory(self, capsys, tmp_path, budget):
        # Criterion 1's cube and window: the file round trip adds no rounding.
        clean = synth_lowrank_cube((40, 40, 16), true_rank=3, seed=1)
        noisy = add_gaussian(clean, 0.05, seed=0)
        noisy_path, den_path, var_path = (tmp_path / f for f in ("n.hsic", "d.hsic", "v.hsic"))
        write_cube(noisy, str(noisy_path))
        code, err = run(capsys, "denoise", "--in", str(noisy_path), "--out", str(den_path),
                        "--variance-out", str(var_path), "--sigma0", "0.05",
                        "--window", "8", "--step", "4", "--rank", "3",
                        "--sparse-card", budget, "--threads", "2")
        assert code == 0 and err == ""
        window = WindowConfig(patch_side=8, step=4, rank=3, sparse_card=float(budget))
        den, var = denoise_with_uq(noisy, PipelineConfig(window=window, sigma0=0.05))
        assert read_cube(str(den_path)).data.tobytes() == den.data.tobytes()
        assert read_cube(str(var_path)).data.tobytes() == var.data.tobytes()


class TestDefaults:
    def test_denoise_window_defaults(self):
        args = _build_parser().parse_args(["denoise", "--in", "x", "--out", "y"])
        assert (args.window, args.step, args.rank) == (20, 4, 7)
        assert args.sparse_card == 0.0
        assert args.solver == "godec"
        assert args.threads is None

    def test_default_window_runs_on_large_enough_cube(self, capsys, tmp_path):
        # The default rank-7 window needs at least 7 bands.
        clean = make_clean(capsys, tmp_path, dims="24,24,8")
        out = tmp_path / "out.hsic"
        code, err = run(capsys, "denoise", "--in", str(clean), "--out", str(out),
                        "--threads", "1")
        assert code == 0 and err == ""
        assert read_cube(str(out)).dims == (24, 24, 8)


class TestUsageErrors:
    def test_mc_requires_at_least_two_trials(self, capsys, tmp_path):
        code, err = run(capsys, "mc", "--clean", "x.hsic", "--sigma0", "0.05",
                        "--trials", "1", "--report", "r.csv")
        assert code == 2
        assert err.startswith("error:") and "minimum 2" in err

    def test_variance_out_requires_sigma0(self, capsys, tmp_path):
        clean = make_clean(capsys, tmp_path)
        code, err = run(capsys, "denoise", "--in", str(clean), "--out", "o.hsic",
                        "--variance-out", "v.hsic", *SMALL_WINDOW)
        assert code == 2
        assert err == "error: --variance-out requires --sigma0\n"

    @pytest.mark.parametrize("out, variance_out", [("x", "x"), ("x", "./x")])
    def test_denoise_refuses_one_path_for_both_outputs(self, capsys, tmp_path, monkeypatch,
                                                       out, variance_out):
        # The input is missing too: the path check runs before it is read.
        monkeypatch.chdir(tmp_path)
        code, err = run(capsys, "denoise", "--in", "missing.hsic", "--out", out,
                        "--variance-out", variance_out, "--sigma0", "0.05")
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "same file" in err
        assert os.listdir(tmp_path) == []

    def test_removed_correlation_flag_is_rejected(self, capsys, tmp_path):
        # The pipeline has one variance model; the old bound modes are gone.
        clean = make_clean(capsys, tmp_path)
        code = main(["denoise", "--in", str(clean), "--out", str(tmp_path / "o.hsic"),
                     "--variance-out", str(tmp_path / "v.hsic"), "--sigma0", "0.05",
                     "--correlation", "full", *SMALL_WINDOW])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--correlation" in err

    def test_no_subcommand(self, capsys):
        code, err = run(capsys)
        assert code == 2 and err.startswith("error:")

    def test_bad_impulse_ratio(self, capsys):
        code, err = run(capsys, "noise", "--in", "x", "--sigma0", "0.1",
                        "--impulse-ratio", "1.5", "--out", "y")
        assert code == 2 and "outside" in err

    def test_bad_dims_string(self, capsys):
        for dims in ("10,10", "4,,4,4", "4,4,4,", "4,,4"):
            code, err = run(capsys, "simulate", "--dims", dims, "--out", "x")
            assert code == 2 and "M,N,P" in err, dims


# A command line each subcommand accepts; a case appends one flag to it.
_VALID = {
    "simulate": ["simulate", "--dims", "4,4,4", "--out", "o.hsic"],
    "noise": ["noise", "--in", "x.hsic", "--sigma0", "0.1", "--out", "o.hsic"],
    "denoise": ["denoise", "--in", "x.hsic", "--out", "o.hsic"],
    "mc": ["mc", "--clean", "x.hsic", "--sigma0", "0.1", "--report", "r.csv"],
    "sweep rank": ["sweep", "rank", "--clean", "x.hsic", "--sigma0", "0.1",
                   "--grid", "1", "--report", "r.csv"],
    "sweep impulse": ["sweep", "impulse", "--clean", "x.hsic", "--sigma0-grid", "0.1",
                      "--ratio-grid", "0", "--report", "r.csv"],
    "bench": ["bench", "--clean", "x.hsic", "--sigma0", "0.1", "--report", "r.csv"],
}

_INT, _NUM = "invalid integer value: 'x'", "invalid number: 'x'"

# (command, flag, out-of-range value, its message, message for "x")
_BOUNDS = [
    ("denoise", "--window", "0", "0 is below the minimum 1", _INT),
    ("denoise", "--step", "0", "0 is below the minimum 1", _INT),
    ("denoise", "--rank", "0", "0 is below the minimum 1", _INT),
    ("simulate", "--rank", "0", "0 is below the minimum 1", _INT),
    ("denoise", "--sparse-card", "-0.5", "-0.5 is below the minimum 0.0", _NUM),
    ("denoise", "--threads", "0", "0 is below the minimum 1", _INT),
    ("simulate", "--seed", "-1", "-1 is below the minimum 0", _INT),
    ("noise", "--seed", "-1", "-1 is below the minimum 0", _INT),
    ("denoise", "--sigma0", "-0.1", "-0.1 is below the minimum 0.0", _NUM),
    ("noise", "--sigma0", "-0.1", "-0.1 is below the minimum 0.0", _NUM),
    ("noise", "--impulse-ratio", "1.5", "1.5 is outside [0, 1]", _NUM),
    ("mc", "--impulse-ratio", "-0.1", "-0.1 is outside [0, 1]", _NUM),
    ("mc", "--trials", "1", "1 is below the minimum 2", _INT),
    ("sweep rank", "--trials", "1", "1 is below the minimum 2", _INT),
    ("sweep impulse", "--trials", "1", "1 is below the minimum 2", _INT),
    ("bench", "--trials", "0", "0 is below the minimum 1", _INT),
    ("sweep rank", "--grid", ",", "list must not be empty",
     "expected comma-separated integers, got 'x'"),
    ("sweep impulse", "--sigma0-grid", ",", "list must not be empty",
     "expected comma-separated numbers, got 'x'"),
    ("sweep impulse", "--ratio-grid", ",", "list must not be empty",
     "expected comma-separated numbers, got 'x'"),
]


# (command, int flag) given 2**64, the first int numpy cannot hold.
_TOO_LARGE = [
    ("denoise", "--window"),
    ("sweep rank", "--grid"),
    ("simulate", "--seed"),
]


# (command, list flag, a list whose last value is out of range, its message)
_LIST_BOUNDS = [
    ("sweep rank", "--grid", "2,0", "0 is below the minimum 1"),
    ("sweep impulse", "--sigma0-grid", "0.05,-1", "-1.0 is below the minimum 0.0"),
    ("sweep impulse", "--ratio-grid", "0,1.5", "1.5 is outside [0, 1]"),
    ("simulate", "--dims", "2,2,99999999999999999999999",
     f"99999999999999999999999 is above the maximum {2**64 - 1}"),
]

# (command, list flag, the noun its parse error names): an empty value is
# an empty list, and an empty item anywhere in a list is refused.
_LISTS = [
    ("sweep rank", "--grid", "integers"),
    ("sweep impulse", "--sigma0-grid", "numbers"),
    ("sweep impulse", "--ratio-grid", "numbers"),
]


@pytest.mark.parametrize("command, flag, value, message", [
    pytest.param(command, flag, value, message, id=f"{command} {flag}={value}")
    for command, flag, low, low_message, nan_message in _BOUNDS
    for value, message in ((low, low_message), ("x", nan_message))
] + [
    pytest.param(command, flag, str(2**64), f"{2**64} is above the maximum {2**64 - 1}",
                 id=f"{command} {flag}=2**64")
    for command, flag in _TOO_LARGE
] + [
    pytest.param(command, flag, value, message, id=f"{command} {flag}={value}")
    for command, flag, value, message in _LIST_BOUNDS
] + [
    pytest.param(command, flag, value, message, id=f"{command} {flag}={value}")
    for command, flag, noun in _LISTS
    for value, message in [("", "list must not be empty")] + [
        (items, f"expected comma-separated {noun}, got {items!r}")
        for items in ("1,,1", "1,", ",0")]
])
def test_range_checked_value_is_one_usage_error_line(capsys, command, flag, value, message):
    code, out, err = main([*_VALID[command], f"{flag}={value}"]), *capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: argument {flag}: {message}\n"


@pytest.mark.parametrize("command", sorted(set(_VALID) - {"simulate", "noise"}))
def test_window_is_checked_before_the_input_is_read(capsys, tmp_path, monkeypatch, command):
    # The input names a missing file: the config is built before any read.
    monkeypatch.chdir(tmp_path)
    code, err = run(capsys, *_VALID[command], "--window", "4", "--step", "5")
    assert code == 1
    assert err == "error: step must be <= patch_side 4, got 5\n"
    assert os.listdir(tmp_path) == []


# Command lines where two path arguments name one file in tmp_path: the same
# spelling, a "./" spelling, or a symlink to the input. Apart from the clash
# each is a valid run on the 12x12x6 cube, so a missed clash overwrites a file.
_CLASHES = {
    "mc --report=--clean": ["mc", "--clean", "clean.hsic", "--sigma0", "0.05",
                            "--trials", "2", *SMALL_WINDOW, "--report", "clean.hsic"],
    "validate sw --report=./--samples": ["validate", "sw", "--samples", "s.csv",
                                         "--report", "./s.csv"],
    "noise --out=symlink to --in": ["noise", "--in", "clean.hsic", "--sigma0", "0.05",
                                    "--out", "link.hsic"],
    "denoise --variance-out=--in": ["denoise", "--in", "clean.hsic", "--out", "o.hsic",
                                    "--variance-out", "clean.hsic", "--sigma0", "0.05",
                                    *SMALL_WINDOW],
    "sweep rank --report=symlink to --clean": [
        "sweep", "rank", "--clean", "clean.hsic", "--sigma0", "0.05", "--grid", "2",
        "--trials", "2", "--window", "6", "--step", "3", "--report", "link.hsic"],
    "bench --clean=./--report": ["bench", "--clean", "./clean.hsic", "--sigma0", "0.05",
                                 "--trials", "1", *SMALL_WINDOW, "--report", "clean.hsic"],
}


@pytest.mark.parametrize("argv", list(_CLASHES.values()), ids=list(_CLASHES))
def test_two_path_arguments_naming_one_file_is_one_usage_error_line(
        capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    make_clean(capsys, tmp_path)
    write_samples_csv(tmp_path / "s.csv")
    os.symlink("clean.hsic", tmp_path / "link.hsic")
    before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
    code, out, err = main(argv), *capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "same file" in err
    assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before


@pytest.mark.parametrize("command, flag, value", [
    ("denoise", "--sigma0", "nan"),
    ("denoise", "--sigma0", "inf"),
    ("denoise", "--sparse-card", "inf"),
    ("denoise", "--sparse-card", "nan"),
    ("noise", "--sigma0", "nan"),
    ("sweep impulse", "--sigma0-grid", "0.05,nan"),
    ("sweep impulse", "--sigma0-grid", "inf"),
    ("sweep impulse", "--ratio-grid", "nan"),
])
def test_non_finite_number_is_one_usage_error_line(capsys, tmp_path, command, flag, value):
    # Rejected by the parser, before any fit runs or any file is written.
    clean = make_clean(capsys, tmp_path)
    out = tmp_path / "o.hsic"
    if command == "sweep impulse":
        # Its --clean names no file, so only the parser can give exit 2.
        argv = [*_VALID[command]]
    else:
        argv = [command, "--in", str(clean), "--out", str(out), "--sigma0=0.05"]
    if command == "denoise":
        argv += [*SMALL_WINDOW, "--variance-out", str(tmp_path / "v.hsic")]
    argv.append(f"{flag}={value}")
    code, stdout, err = main(argv), *capsys.readouterr()
    assert code == 2 and stdout == ""
    assert err == f"error: argument {flag}: {value.split(',')[-1]} is not finite\n"
    assert not out.exists() and not (tmp_path / "v.hsic").exists()


def test_sweep_rank_beyond_the_bands_fails_before_any_trial(capsys, tmp_path, monkeypatch):
    # Rank 2 fits the 8-band cube and comes first; rank 99 does not.
    clean = make_clean(capsys, tmp_path, dims="12,12,8")
    calls = []
    monkeypatch.setattr(lrma_uq.validate, "monte_carlo", lambda *a, **k: calls.append(1))
    code, err = run(capsys, "sweep", "rank", "--clean", str(clean), "--sigma0", "0.05",
                    "--grid", "2,99", "--trials", "2", "--report", str(tmp_path / "r.csv"),
                    "--window", "6", "--step", "3", "--threads", "1")
    assert code == 1 and err == "error: rank 99 exceeds min(patch_side^2, bands) = 8\n"
    assert calls == [] and not (tmp_path / "r.csv").exists()


def test_largest_int_numpy_holds_still_parses():
    big = str(2**64 - 1)
    args = _build_parser().parse_args([*_VALID["denoise"], "--window", big])
    assert args.window == 2**64 - 1
    args = _build_parser().parse_args([*_VALID["sweep rank"], "--grid", f"1,{big}"])
    assert args.grid == [1, 2**64 - 1]


class TestSolverFlag:
    def test_tsvd_solver_is_a_zero_sparse_budget(self, capsys, tmp_path):
        # --solver tsvd fits without the sparse step whatever --sparse-card
        # says, so it writes the bytes of a zero budget; a zero budget takes
        # the same fit under either solver.
        clean = make_clean(capsys, tmp_path)
        noisy = tmp_path / "noisy.hsic"
        run(capsys, "noise", "--in", str(clean), "--sigma0", "0.05",
            "--impulse-ratio", "0.05", "--seed", "3", "--out", str(noisy))

        def outputs(*flags):
            out, var = tmp_path / "out.hsic", tmp_path / "var.hsic"
            code, err = run(capsys, "denoise", "--in", str(noisy), "--out", str(out),
                            "--variance-out", str(var), "--sigma0", "0.05",
                            *SMALL_WINDOW, "--threads", "1", *flags)
            assert code == 0 and err == ""
            return out.read_bytes(), var.read_bytes()

        zero = outputs("--sparse-card", "0")
        assert outputs("--solver", "tsvd", "--sparse-card", "9") == zero
        assert outputs("--solver", "tsvd") == zero
        assert outputs("--solver", "godec") == zero
        # The budget does change the fit once GoDec runs.
        assert outputs("--solver", "godec", "--sparse-card", "9") != zero


class TestRuntimeErrors:
    def test_missing_input_file_is_one_error_line(self, capsys, tmp_path):
        code, err = run(capsys, "denoise", "--in", str(tmp_path / "nope.hsic"),
                        "--out", "o.hsic", *SMALL_WINDOW)
        assert code == 1
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_corrupt_cube_file(self, capsys, tmp_path):
        bad = tmp_path / "garbage.hsic"
        bad.write_bytes(b"not a cube container\n")
        code, err = run(capsys, "denoise", "--in", str(bad), "--out", "o.hsic",
                        *SMALL_WINDOW)
        assert code == 1 and "bad magic" in err

    def test_payload_larger_than_memory_is_one_error_line(self, capsys, tmp_path):
        bad = tmp_path / "huge.hsic"
        bad.write_bytes(b"HSIC1 100000 100000 1000 f64 BSQ LE\n" + b"\x00" * 2)
        code, err = run(capsys, "denoise", "--in", str(bad), "--out", "o.hsic",
                        *SMALL_WINDOW)
        assert code == 1
        assert err == "error: truncated payload: expected 80000000000000 bytes, got 2\n"

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 7.28 PiB", "error: Unable to allocate 7.28 PiB\n"),
        ("", "error: MemoryError\n"),  # as a failed bytearray raises it
    ])
    def test_failed_allocation_is_one_error_line(self, capsys, tmp_path, monkeypatch,
                                                 message, line):
        # The cube is never allocated: the synthesis raises what numpy or
        # Python raise for a request larger than memory.
        def refuse(dims, true_rank, seed):
            raise MemoryError(message)

        monkeypatch.setattr(lrma_uq.cli, "synth_lowrank_cube", refuse)
        out = tmp_path / "x.hsic"
        code, err = run(capsys, "simulate", "--dims", "100000,100000,1000", "--rank", "3",
                        "--out", str(out))
        assert (code, err) == (1, line)
        assert not out.exists()

    @pytest.mark.parametrize("check", ["qq", "sw"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_sample_is_one_error_line(self, capsys, tmp_path, check, bad):
        samples = tmp_path / "samples.csv"
        write_samples_csv(samples)
        samples.write_text(samples.read_text() + f"{bad}\n")
        report = tmp_path / "report.csv"
        code, err = run(capsys, "validate", check, "--samples", str(samples),
                        "--report", str(report))
        assert code == 1
        assert err == "error: sample has non-finite values (1 of 101)\n"
        assert not report.exists()

    @pytest.mark.parametrize("check", ["qq", "sw"])
    @pytest.mark.parametrize("text, line", [
        ("residual\n0.5\nfoo\n", "error: non-numeric sample at line 3: 'foo'\n"),
        ("", "error: no samples found in {}\n"),
        ("residual\n", "error: no samples found in {}\n"),
        # The blank row is skipped, not read as a sample, but still counts as a line.
        ("residual\n\n0.5\nfoo\n", "error: non-numeric sample at line 4: 'foo'\n"),
    ], ids=["non-numeric", "empty", "header-only", "blank-row"])
    def test_unreadable_samples_are_one_error_line(self, capsys, tmp_path, check, text, line):
        samples = tmp_path / "samples.csv"
        samples.write_text(text)
        report = tmp_path / "report.csv"
        code, out, err = main(["validate", check, "--samples", str(samples),
                               "--report", str(report)]), *capsys.readouterr()
        assert (code, out) == (1, "")
        assert err == line.format(samples)
        assert not report.exists()

    def test_window_larger_than_cube(self, capsys, tmp_path):
        clean = make_clean(capsys, tmp_path)
        code, err = run(capsys, "denoise", "--in", str(clean), "--out", "o.hsic",
                        "--window", "40", "--step", "4", "--rank", "2")
        assert code == 1 and err.startswith("error:")


class TestThreads:
    def test_thread_flag_never_changes_output_bytes(self, capsys, tmp_path):
        clean = make_clean(capsys, tmp_path)
        noisy = tmp_path / "noisy.hsic"
        run(capsys, "noise", "--in", str(clean), "--sigma0", "0.05",
            "--seed", "3", "--out", str(noisy))
        blobs = []
        for threads in ("1", "2", "8"):
            out = tmp_path / f"out{threads}.hsic"
            var = tmp_path / f"var{threads}.hsic"
            code, err = run(capsys, "denoise", "--in", str(noisy),
                            "--out", str(out), "--variance-out", str(var),
                            "--sigma0", "0.05", *SMALL_WINDOW,
                            "--threads", threads)
            assert code == 0 and err == ""
            blobs.append((out.read_bytes(), var.read_bytes()))
        assert all(b == blobs[0] for b in blobs[1:])

    def test_default_is_usable_cores_without_env_var(self):
        # Workers pay off only with BLAS held to one thread, so the default
        # follows the usable cores only when numpy's OpenBLAS can be pinned.
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert _resolve_threads(None) == (cores if blas._can_pin() else 1)
        assert _resolve_threads(2) == 2


# Run in a fresh interpreter: this test process has long imported scipy.
_IMPORT_PROBE = """
import sys
import numpy as np
import lrma_uq, lrma_uq.cli
from lrma_uq import HsiCube, qq_data, write_cube

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

noisy, out, var = sys.argv[1:4]
write_cube(HsiCube(np.random.default_rng(0).uniform(size=(10, 10, 4))), noisy)
code = lrma_uq.cli.main(["denoise", "--in", noisy, "--out", out, "--variance-out", var,
                         "--window", "6", "--step", "2", "--rank", "2", "--sigma0", "0.05"])
print(code, loaded())
pairs = qq_data(np.array([0.3, -1.2, 2.5, 0.0, 1.1, -0.4, 0.9]))
print("scipy" in sys.modules, [[float(x).hex() for x in row] for row in pairs])
"""

# qq_data's pairs for the probe's sample, as scipy.stats.norm.ppf gives them.
_QQ_PAIRS = [
    ["-0x1.5d4f227526cb6p+0", "-0x1.4e27996019dddp+0"],
    ["-0x1.843eec0a27884p-1", "-0x1.59ad60df0046ap-1"],
    ["-0x1.696786e03f833p-2", "-0x1.70b8efdccd183p-2"],
    ["0x0.0p+0", "-0x1.fafe49cf9a01ap-4"],
    ["0x1.696786e03f836p-2", "0x1.6533285de6af3p-2"],
    ["0x1.843eec0a27884p-1", "0x1.034208a74034ep-1"],
    ["0x1.5d4f227526cb7p+0", "0x1.9bee9bf8ad20dp+0"],
]


class TestImports:
    def test_denoising_never_imports_scipy(self, tmp_path):
        # scipy serves only the normality checks (validate qq|sw); importing
        # it costs more than a small denoise. qq_data loads it on demand and
        # keeps scipy's quantiles, so the Q-Q CSV bytes do not change.
        src = os.path.dirname(os.path.dirname(os.path.abspath(lrma_uq.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        files = [str(tmp_path / name) for name in ("in.hsic", "out.hsic", "var.hsic")]
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *files], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        denoised, quantiles = proc.stdout.splitlines()
        assert denoised == "0 []"
        assert quantiles == f"True {_QQ_PAIRS}"
