"""Acceptance gate: ten numbered criteria, one test each.

Every test prints exactly one line, "PASS criterion N: ..." or
"FAIL criterion N: ...", with the measured quantities, then asserts the
stated tolerance. The line is written to the real stdout so it appears in
the test log whether or not pytest captures output. Criteria are asserted
at their stated bounds even where the implementation is known to miss
them; a red test here is a finding, not a harness bug.
"""

import logging
import statistics
import sys
import time

import numpy as np
import pytest

from lrma_uq import (
    HsiCube,
    NoiseSpec,
    PipelineConfig,
    WindowConfig,
    aggregate_variance,
    apply_noise,
    denoise,
    denoise_with_uq,
    enumerate_patches,
    godec,
    impulse_sweep,
    monte_carlo,
    overlap_ratio,
    qq_data,
    shapiro_wilk,
    synth_lowrank_cube,
    truncated_svd,
)
from lrma_uq.cli import main as cli_main

C1_DIMS = (40, 40, 16)
C1_SIGMA0 = 0.05
C1_TRIALS = 100


_active_capsys = None


@pytest.fixture(autouse=True)
def _route_report_lines(capsys):
    """Let report_line escape pytest's fd-level capture via capsys.disabled."""
    global _active_capsys
    _active_capsys = capsys
    yield
    _active_capsys = None


def report_line(criterion: int, ok: bool, detail: str) -> str:
    line = f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}"
    if _active_capsys is not None:
        with _active_capsys.disabled():
            print(line, flush=True)
    else:
        sys.__stdout__.write(line + "\n")
        sys.__stdout__.flush()
    return line


def c1_config(**window_overrides) -> PipelineConfig:
    window = WindowConfig(patch_side=8, step=4, rank=3, **window_overrides)
    return PipelineConfig(window=window, sigma0=C1_SIGMA0)


@pytest.fixture(scope="module")
def coverage_run():
    """The shared calibration workload: rank-3 40x40x16 cube, window 8,
    step 4, fit rank 3, sigma0 0.05, 100 trials, trial-0 interval std."""
    clean = synth_lowrank_cube(C1_DIMS, true_rank=3, seed=1)
    report = monte_carlo(
        clean,
        NoiseSpec(sigma0=C1_SIGMA0),
        c1_config(),
        trials=C1_TRIALS,
        base_seed=0,
        keep_samples=True,
    )
    return clean, report


def test_criterion_01_coverage_calibration(coverage_run):
    _, report = coverage_run
    mean_ok = 0.92 <= report.mean_coverage <= 0.98
    std_ok = report.std_coverage <= 0.08
    ok = mean_ok and std_ok
    line = report_line(
        1, ok,
        f"mean coverage {report.mean_coverage:.4f} (target [0.92, 0.98]), "
        f"per-voxel std {report.std_coverage:.4f} (target <= 0.08), "
        f"T={report.trials}",
    )
    assert ok, line


def test_criterion_02_factor_error_law():
    # Rank-2 30x20 truth with singular values (3, 1.5); 1000 independent
    # noise draws at sigma0 = 0.02; rectified factor errors should have
    # row covariance sigma0^2 * inv(diag(singular values)).
    from oracles import factor_error_samples

    rng = np.random.default_rng(42)
    m, n, rank = 30, 20, 2
    sing = np.array([3.0, 1.5])
    qu, _ = np.linalg.qr(rng.standard_normal((m, rank)))
    qv, _ = np.linalg.qr(rng.standard_normal((n, rank)))
    clean = (qu * sing) @ qv.T
    truth = truncated_svd(clean, rank)

    sigma0 = 0.02
    trials = [
        truncated_svd(
            clean + sigma0 * np.random.default_rng(1000 + i).standard_normal((m, n)),
            rank,
        )
        for i in range(1000)
    ]
    cov_x, _ = factor_error_samples(truth, trials)

    theory = sigma0 * sigma0 / sing
    rel = np.abs(np.diag(cov_x) - theory) / theory
    off = abs(cov_x[0, 1])
    off_bound = 0.20 * theory.min()
    ok = bool(rel.max() <= 0.15 and off <= off_bound)
    line = report_line(
        2, ok,
        f"diagonal rel errors {rel[0]:.3f}/{rel[1]:.3f} (target <= 0.15), "
        f"|off-diagonal| {off:.2e} (target <= {off_bound:.2e})",
    )
    assert ok, line


def test_criterion_03_overlap_ratio_exactness():
    side = 8
    half = side // 2
    base = (0, 0)
    adjacent = [(0, half), (half, 0)]
    diagonal = (half, half)
    adj_vals = [overlap_ratio(base, o, side) for o in adjacent]
    diag_val = overlap_ratio(base, diagonal, side)
    ok = all(v == 0.5 for v in adj_vals) and diag_val == 0.25
    line = report_line(
        3, ok,
        f"adjacent pairs {adj_vals[0]}/{adj_vals[1]} (target exactly 0.5), "
        f"diagonal pair {diag_val} (target exactly 0.25)",
    )
    assert ok, line


def test_criterion_04_closed_form_matches_brute_force_variance():
    # One full-cube window (step = side) on a 10x10x8 rank-2 cube: the
    # closed-form variance against the empirical MC variance of 2000
    # independently noised fits.
    clean = synth_lowrank_cube((10, 10, 8), true_rank=2, seed=3)
    cfg = PipelineConfig(
        window=WindowConfig(patch_side=10, step=10, rank=2), sigma0=0.03
    )
    report = monte_carlo(
        clean, NoiseSpec(sigma0=0.03), cfg,
        trials=2000, base_seed=0, keep_samples=True,
    )
    analytic = report.sigma_hat.data ** 2
    empirical = report.samples.var(axis=0, ddof=1)
    within = np.abs(analytic - empirical) <= 0.10 * empirical
    frac = float(within.mean())
    ok = frac >= 0.90
    line = report_line(
        4, ok,
        f"{frac:.3f} of entries within 10% of MC variance "
        f"(target >= 0.90), T=2000",
    )
    assert ok, line


def test_criterion_05_normality_of_denoised_voxels(coverage_run):
    _, report = coverage_run
    m, n, p = C1_DIMS
    flat = np.random.default_rng(123).choice(m * n * p, size=20, replace=False)
    voxels = np.unravel_index(flat, C1_DIMS)

    # The Q-Q bound applies to the pairs whose Blom plotting position lies
    # in [0.05, 0.95] (the central 90 of 100 order statistics). The extreme
    # order statistics of 100 exactly normal draws alone exceed 0.5 in
    # almost every set of 20 voxels; the tails are left to Shapiro-Wilk.
    central_limit = statistics.NormalDist().inv_cdf(0.95)
    sw_pass = 0
    max_dev = 0.0
    full_dev = 0.0
    for i, j, k in zip(*voxels):
        x = report.samples[:, i, j, k]
        sw_pass += shapiro_wilk(x).p_value > 0.05
        pairs = qq_data(x)
        dev = np.abs(pairs[:, 1] - pairs[:, 0])
        central = np.abs(pairs[:, 0]) <= central_limit
        max_dev = max(max_dev, float(dev[central].max()))
        full_dev = max(full_dev, float(dev.max()))

    sw_ok = sw_pass >= 17
    qq_ok = max_dev < 0.5
    ok = sw_ok and qq_ok
    line = report_line(
        5, ok,
        f"Shapiro-Wilk p>0.05 at {sw_pass}/20 voxels (target >= 17), "
        f"max Q-Q deviation over plotting positions [0.05, 0.95] {max_dev:.3f} "
        f"(target < 0.5; full range {full_dev:.3f}, not bounded)",
    )
    assert ok, line


def test_criterion_07_uq_overhead(coverage_run):
    # One run = a back-to-back (plain, with-variance) pair, so both halves
    # see the same momentary machine speed; the median over 5 runs rejects
    # runs hit by outside bursts. Defined (and therefore run) before the
    # criterion-6 sweep so that sweep's CPU churn cannot pollute the
    # samples. Stage-isolated, the variance path adds ~12% compute.
    clean, _ = coverage_run
    cfg = c1_config()
    noisy = apply_noise(clean, NoiseSpec(sigma0=C1_SIGMA0), seed=0)

    for _ in range(2):                 # warm-up: imports, allocator, caches
        denoise(noisy, cfg)
        denoise_with_uq(noisy, cfg)
    plain, uq = [], []
    for _ in range(5):
        t0 = time.perf_counter()
        denoise(noisy, cfg)
        plain.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        denoise_with_uq(noisy, cfg)
        uq.append(time.perf_counter() - t0)
    ratio = statistics.median(u / p for u, p in zip(uq, plain))
    ok = ratio <= 1.25
    line = report_line(
        7, ok,
        f"per-run wall-clock ratio with/without variance: median {ratio:.3f} "
        f"over 5 paired runs (target <= 1.25); raw medians "
        f"{statistics.median(uq) * 1e3:.1f} ms vs {statistics.median(plain) * 1e3:.1f} ms",
    )
    assert ok, line


def test_criterion_06_impulse_robustness_trend(coverage_run):
    clean, _ = coverage_run
    # Sparse budget 0.10 matches the expected impulse hit count per patch;
    # 30 alternations per window keep the sweep affordable.
    window = WindowConfig(patch_side=8, step=4, rank=3, sparse_card=0.10)
    cfg = PipelineConfig(window=window, sigma0=C1_SIGMA0, max_iter=30)
    ratios = [0.0, 0.05, 0.10, 0.20]

    pipeline_log = logging.getLogger("lrma_uq.pipeline")
    old_level = pipeline_log.level
    pipeline_log.setLevel(logging.ERROR)  # iteration-cap warnings x400 trials
    try:
        sweep = impulse_sweep(clean, [C1_SIGMA0], ratios, cfg, trials=100, base_seed=0)
    finally:
        pipeline_log.setLevel(old_level)

    coverages = [row[2] for row in sweep.rows]
    trend_ok = all(b <= a + 0.02 for a, b in zip(coverages, coverages[1:]))
    floor = coverages[ratios.index(0.10)]
    floor_ok = floor >= 0.80
    ok = trend_ok and floor_ok
    line = report_line(
        6, ok,
        "coverages at ratios {0, 0.05, 0.10, 0.20} = "
        + "/".join(f"{c:.3f}" for c in coverages)
        + f" (non-increasing within 0.02: {trend_ok}), "
        f"coverage at 0.10 = {floor:.3f} (target >= 0.80)",
    )
    assert ok, line


def test_criterion_08_solver_correctness():
    rng = np.random.default_rng(8)

    # (a) zero sparse budget reduces to the truncated SVD.
    max_gap = 0.0
    for _ in range(20):
        a = rng.standard_normal((40, 25))
        gap = np.linalg.norm(godec(a, 5, 0).low_rank - truncated_svd(a, 5).matrix())
        max_gap = max(max_gap, float(gap))
    svd_ok = max_gap <= 1e-10

    # (b) exact rank-r inputs are reconstructed.
    max_rel = 0.0
    for _ in range(10):
        exact = rng.standard_normal((30, 8)) @ rng.standard_normal((8, 20))
        for k in (0, 10):
            res = godec(exact, 8, k)
            rel = np.linalg.norm(res.low_rank - exact) / np.linalg.norm(exact)
            max_rel = max(max_rel, float(rel))
    exact_ok = max_rel <= 1e-8

    # (c) the residual never increases across iterations.
    worst_rise = -np.inf
    for _ in range(50):
        m, n = rng.integers(15, 40), rng.integers(10, 30)
        rank = int(rng.integers(1, 6))
        card = int(rng.integers(1, m * n // 4))
        a = rng.standard_normal((m, n))
        hist = godec(a, rank, card, max_iter=40).residual_history
        if len(hist) > 1:
            worst_rise = max(worst_rise, float(np.max(np.diff(hist))))
    monotone_ok = worst_rise <= 1e-12

    ok = svd_ok and exact_ok and monotone_ok
    line = report_line(
        8, ok,
        f"max |godec(k=0) - tsvd| {max_gap:.2e} (target <= 1e-10), "
        f"max exact-rank rel error {max_rel:.2e} (target <= 1e-8), "
        f"worst residual rise {worst_rise:.2e} (target <= 0)",
    )
    assert ok, line


def test_criterion_09_aggregation_sanity():
    # (a) equal copies of the fully correlated spectral part: averaging
    # correlated copies of the same number must return that number.
    dims = (10, 10, 3)
    window = WindowConfig(patch_side=4, step=2, rank=2)
    grid = enumerate_patches(dims, window)
    value = 0.09
    agg = aggregate_variance(
        np.zeros((len(grid), 16)), np.full((len(grid), 3), value), grid, 1.0
    )
    equal_dev = float(np.abs(agg.data - value).max())
    equal_ok = equal_dev <= 1e-12

    # (b) step = window: no overlaps, so aggregation is exact placement of
    # each window's sigma0^2 * lu + (sqrt(sigma0^2 * lv))^2.
    dims = (8, 8, 2)
    window = WindowConfig(patch_side=4, step=4, rank=2)
    grid = enumerate_patches(dims, window)
    rng = np.random.default_rng(9)
    sigma0 = 0.07
    s2 = sigma0 * sigma0
    row_lev = rng.uniform(0.01, 1.0, size=(len(grid), 16))
    col_lev = rng.uniform(0.01, 1.0, size=(len(grid), 2))
    agg = aggregate_variance(row_lev, col_lev, grid, sigma0)
    expected = np.empty(dims)
    for (r0, c0), lu, lv in zip(grid.origins, row_lev, col_lev):
        expected[r0:r0 + 4, c0:c0 + 4, :] = s2 * lu.reshape(4, 4, 1) + np.sqrt(s2 * lv) ** 2
    tiling_ok = bool(np.array_equal(agg.data, expected))

    ok = equal_ok and tiling_ok
    line = report_line(
        9, ok,
        f"equal spectral-variance copies max deviation {equal_dev:.2e} "
        f"(target <= 1e-12), no-overlap placement exact: {tiling_ok}",
    )
    assert ok, line


def test_criterion_10_worker_count_determinism(coverage_run, tmp_path):
    clean, _ = coverage_run
    from lrma_uq import write_cube

    clean_path = tmp_path / "clean.hsic"
    noisy_path = tmp_path / "noisy.hsic"
    write_cube(clean, str(clean_path))
    assert cli_main([
        "noise", "--in", str(clean_path), "--sigma0", str(C1_SIGMA0),
        "--seed", "0", "--out", str(noisy_path),
    ]) == 0

    blobs = []
    for threads in ("1", "2", "8"):
        out = tmp_path / f"den{threads}.hsic"
        var = tmp_path / f"var{threads}.hsic"
        code = cli_main([
            "denoise", "--in", str(noisy_path), "--out", str(out),
            "--variance-out", str(var), "--sigma0", str(C1_SIGMA0),
            "--window", "8", "--step", "4", "--rank", "3",
            "--threads", threads,
        ])
        assert code == 0
        blobs.append((out.read_bytes(), var.read_bytes()))

    identical = all(b == blobs[0] for b in blobs[1:])
    line = report_line(
        10, identical,
        f"denoised+variance files bit-identical across 1/2/8 workers: {identical}",
    )
    assert identical, line
