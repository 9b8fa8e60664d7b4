"""Command-line front end: cube synthesis, noising, denoising with optional
variance output, Monte Carlo coverage runs, normality checks, parameter
sweeps, and timing comparisons.

Errors are a single machine-parsable line on stderr ("error: ..."); data
goes to files only, keeping stdout clean for scripting. Seeds fix every
stochastic output bit-exactly; --threads changes wall-clock only.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from . import blas
from .io import read_cube, write_cube, write_qq_csv, write_report_csv
from .noise import NoiseSpec, apply_noise, synth_lowrank_cube
from .pipeline import PipelineConfig, denoise, denoise_with_uq
from .validate import (
    impulse_sweep,
    monte_carlo,
    qq_data,
    rank_sweep,
    shapiro_wilk,
    timing_compare,
)
from .windows import WindowConfig


class _UsageError(Exception):
    """Bad flags or flag combinations; reported on one line, exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _in_range(value, minimum: float, maximum: float | None):
    """`value` if numpy holds it (a finite float, an int up to uint64's
    largest) and it is at least `minimum` and at most any `maximum`."""
    if isinstance(value, float) and not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"{value} is not finite")
    if isinstance(value, int) and value > 2**64 - 1:
        raise argparse.ArgumentTypeError(f"{value} is above the maximum {2**64 - 1}")
    if maximum is None and value < minimum:
        raise argparse.ArgumentTypeError(f"{value} is below the minimum {minimum}")
    if maximum is not None and not minimum <= value <= maximum:
        raise argparse.ArgumentTypeError(f"{value} is outside [{minimum}, {maximum}]")
    return value


def _number(kind: type, minimum: float, maximum: float | None = None):
    """Parser of one finite int or float: at least `minimum`, at most any `maximum`."""
    noun = "integer value" if kind is int else "number"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {noun}: {text!r}") from None
        return _in_range(value, minimum, maximum)

    return parse


def _list_of(kind: type, minimum: float, maximum: float | None = None):
    """Parser of a non-empty comma-separated list of `kind` values, each
    range-checked as `_number` checks one; an empty item is refused."""
    noun = "integers" if kind is int else "numbers"

    def parse(text: str) -> list:
        if not text.strip(","):
            raise argparse.ArgumentTypeError("list must not be empty")
        try:
            values = [kind(t) for t in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {noun}, got {text!r}") from None
        return [_in_range(value, minimum, maximum) for value in values]

    return parse


def _dims(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3 or "" in parts:
        raise argparse.ArgumentTypeError(f"expected M,N,P, got {text!r}")
    return tuple(_list_of(int, 1)(text))


def _resolve_threads(value: int | None) -> int:
    """Fitting workers: the --threads value, else every usable core when BLAS
    can be held at one thread per worker, else 1."""
    if value is not None:
        return value
    if not blas._can_pin():
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _add_window_flags(parser: argparse.ArgumentParser, with_rank: bool = True) -> None:
    parser.add_argument("--window", type=_number(int, 1), default=WindowConfig.patch_side,
                        help="spatial side of the sliding window (default %(default)s)")
    parser.add_argument("--step", type=_number(int, 1), default=WindowConfig.step,
                        help="stride between window origins (default %(default)s)")
    if with_rank:
        parser.add_argument("--rank", type=_number(int, 1), default=WindowConfig.rank,
                            help="rank of the per-window fit (default %(default)s)")
    parser.add_argument("--sparse-card", type=_number(float, 0.0), default=WindowConfig.sparse_card,
                        help="sparse budget: 0 disables, <1 is a fraction of "
                             "patch entries, >=1 a whole count (default %(default)s)")
    parser.add_argument("--solver", choices=("godec", "tsvd"), default="godec",
                        help="godec (default) runs GoDec only with a positive --sparse-card, "
                             "else the TSVD; tsvd forces a zero sparse budget")
    parser.add_argument("--threads", type=_number(int, 1), default=None,
                        help="worker threads, each fitting one chunk of windows "
                             "(at most 1 MiB, at least one window) at a time with "
                             "BLAS held at one thread (default: the usable "
                             "cores when numpy's OpenBLAS can be held at one thread, "
                             "else 1); never changes output bytes")


def _add_noise_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sigma0", type=_number(float, 0.0), required=True)
    parser.add_argument("--impulse-ratio", type=_number(float, 0, 1), default=0.0)
    parser.add_argument("--seed", type=_number(int, 0), default=0)


def _noise_spec(args: argparse.Namespace) -> NoiseSpec:
    return NoiseSpec(sigma0=args.sigma0, impulse_ratio=args.impulse_ratio, seed=args.seed)


def _pipeline_config(args: argparse.Namespace, sigma0: float, rank: int | None = None) -> PipelineConfig:
    """The run's config; `--solver tsvd` is a zero sparse budget, the plain TSVD fit."""
    window = WindowConfig(
        patch_side=args.window,
        step=args.step,
        rank=args.rank if rank is None else rank,
        sparse_card=0.0 if args.solver == "tsvd" else args.sparse_card,
    )
    return PipelineConfig(window=window, sigma0=sigma0, threads=_resolve_threads(args.threads))


def _read_samples(path: str) -> np.ndarray:
    """First column of a CSV as floats; a non-numeric first row is a header."""
    values: list[float] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh)):
            if not row:
                continue
            try:
                values.append(float(row[0]))
            except ValueError:
                if lineno == 0:
                    continue
                raise ValueError(f"non-numeric sample at line {lineno + 1}: {row[0]!r}") from None
    if not values:
        raise ValueError(f"no samples found in {path}")
    return np.asarray(values, dtype=np.float64)


def _cmd_simulate(args: argparse.Namespace) -> None:
    write_cube(synth_lowrank_cube(args.dims, args.rank, args.seed), args.out)


def _cmd_noise(args: argparse.Namespace) -> None:
    write_cube(apply_noise(read_cube(args.in_path), _noise_spec(args)), args.out)


def _cmd_denoise(args: argparse.Namespace) -> None:
    if args.variance_out is not None and args.sigma0 is None:
        raise _UsageError("--variance-out requires --sigma0")
    cfg = _pipeline_config(args, sigma0=args.sigma0 if args.sigma0 is not None else 0.0)
    cube = read_cube(args.in_path)
    if args.variance_out is not None:
        den, var = denoise_with_uq(cube, cfg)
        write_cube(den, args.out)
        write_cube(var, args.variance_out)
    else:
        write_cube(denoise(cube, cfg), args.out)


def _cmd_mc(args: argparse.Namespace):
    cfg = _pipeline_config(args, sigma0=args.sigma0)
    clean = read_cube(args.clean)
    return monte_carlo(
        clean, _noise_spec(args), cfg,
        trials=args.trials,
        base_seed=args.seed,
        sigma_mode=args.sigma_mode.replace("-", "_"),
    )


def _cmd_validate(args: argparse.Namespace):
    samples = _read_samples(args.samples)
    if args.check == "sw":
        return shapiro_wilk(samples)
    write_qq_csv(qq_data(samples), args.report)
    return None


def _cmd_sweep_rank(args: argparse.Namespace):
    cfg = _pipeline_config(args, sigma0=args.sigma0, rank=args.grid[0])
    clean = read_cube(args.clean)
    return rank_sweep(clean, _noise_spec(args), cfg, args.grid, trials=args.trials, base_seed=args.seed)


def _cmd_sweep_impulse(args: argparse.Namespace):
    cfg = _pipeline_config(args, sigma0=args.sigma0_grid[0])
    clean = read_cube(args.clean)
    return impulse_sweep(
        clean, args.sigma0_grid, args.ratio_grid, cfg,
        trials=args.trials, base_seed=args.seed,
    )


def _cmd_bench(args: argparse.Namespace):
    cfg = _pipeline_config(args, sigma0=args.sigma0)
    clean = read_cube(args.clean)
    return timing_compare(clean, _noise_spec(args), cfg, mc_trials=args.trials, base_seed=args.seed)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="lrma-uq",
        description="Sliding-window low-rank denoising of hyperspectral cubes "
                    "with closed-form per-voxel uncertainty.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("simulate", help="write a synthetic low-rank cube")
    p.add_argument("--dims", type=_dims, required=True, metavar="M,N,P")
    p.add_argument("--rank", type=_number(int, 1), default=3,
                   help="true rank of the synthetic cube (default 3)")
    p.add_argument("--seed", type=_number(int, 0), default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("noise", help="corrupt a cube with Gaussian and impulse noise")
    p.add_argument("--in", dest="in_path", required=True)
    _add_noise_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_noise)

    p = sub.add_parser("denoise", help="denoise a cube, optionally with a variance cube")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--variance-out", default=None,
                   help="also write the closed-form variance cube (needs --sigma0)")
    p.add_argument("--sigma0", type=_number(float, 0.0), default=None,
                   help="noise std driving the variance cube")
    _add_window_flags(p)
    p.set_defaults(func=_cmd_denoise)

    p = sub.add_parser("mc", help="Monte Carlo coverage of the closed-form intervals")
    p.add_argument("--clean", required=True)
    _add_noise_flags(p)
    p.add_argument("--trials", type=_number(int, 2), default=100)
    p.add_argument("--sigma-mode", choices=("trial0", "per-trial"), default="trial0",
                   help="which trial's closed-form std defines the interval")
    p.add_argument("--report", required=True)
    _add_window_flags(p)
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("validate", help="normality checks on a sample CSV")
    vsub = p.add_subparsers(dest="check", required=True, parser_class=_Parser)
    for check, helptext in (("qq", "normal Q-Q pairs"), ("sw", "Shapiro-Wilk test")):
        vp = vsub.add_parser(check, help=helptext)
        vp.add_argument("--samples", required=True, help="CSV whose first column holds the sample")
        vp.add_argument("--report", required=True)
        vp.set_defaults(func=_cmd_validate)

    p = sub.add_parser("sweep", help="coverage sweeps over rank or impulse grids")
    ssub = p.add_subparsers(dest="axis", required=True, parser_class=_Parser)

    sp = ssub.add_parser("rank", help="sweep the fit rank")
    sp.add_argument("--clean", required=True)
    _add_noise_flags(sp)
    sp.add_argument("--grid", type=_list_of(int, 1), required=True, metavar="R1,R2,...")
    sp.add_argument("--trials", type=_number(int, 2), default=100)
    sp.add_argument("--report", required=True)
    _add_window_flags(sp, with_rank=False)
    sp.set_defaults(func=_cmd_sweep_rank)

    sp = ssub.add_parser("impulse", help="sweep noise levels and impulse ratios")
    sp.add_argument("--clean", required=True)
    sp.add_argument("--sigma0-grid", type=_list_of(float, 0.0), required=True, metavar="S1,S2,...")
    sp.add_argument("--ratio-grid", type=_list_of(float, 0, 1), required=True, metavar="R1,R2,...")
    sp.add_argument("--trials", type=_number(int, 2), default=100)
    sp.add_argument("--seed", type=_number(int, 0), default=0)
    sp.add_argument("--report", required=True)
    _add_window_flags(sp)
    sp.set_defaults(func=_cmd_sweep_impulse)

    p = sub.add_parser("bench", help="time trial-based vs closed-form uncertainty")
    p.add_argument("--clean", required=True)
    _add_noise_flags(p)
    p.add_argument("--trials", type=_number(int, 1), default=10,
                   help="trial count for the Monte Carlo route")
    p.add_argument("--report", required=True)
    _add_window_flags(p)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        seen: set[str] = set()  # no two path arguments may name one file
        for dest in ("in_path", "clean", "samples", "out", "variance_out", "report"):
            path = getattr(args, dest, None)
            real = None if path is None else os.path.realpath(path)
            if real in seen:
                raise _UsageError(f"two path arguments name the same file: {path}")
            if real is not None:
                seen.add(real)
        report = args.func(args)  # a report command returns its report; the rest write files
        if report is not None:
            write_report_csv(report, args.report)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
