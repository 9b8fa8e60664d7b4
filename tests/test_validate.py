"""Tests for the Monte Carlo validation layer: interval coverage scoring,
normal Q-Q data, Shapiro-Wilk wrapping, and the sweep/timing drivers.

Statistical assertions are either exact constructions (inclusive boundary,
scale invariance by a power of two, normal-scores input) or use sample
sizes where the law of large numbers leaves wide, pinned-seed margins.
"""

import sys
import tracemalloc

import numpy as np
import pytest
from scipy import stats as scipy_stats

from lrma_uq import (
    HsiCube,
    NoiseSpec,
    PipelineConfig,
    WindowConfig,
    Z95,
    apply_noise,
    coverage_rate,
    denoise,
    denoise_with_uq,
    impulse_sweep,
    monte_carlo,
    qq_data,
    rank_sweep,
    shapiro_wilk,
    synth_lowrank_cube,
    timing_compare,
    validate,
)

DIMS = (12, 12, 6)


def mc_setup(sigma0=0.05, **cfg_overrides):
    """A small clean cube plus a matched pipeline config for fast MC runs."""
    clean = synth_lowrank_cube(DIMS, true_rank=2, seed=2)
    window = cfg_overrides.pop("window", WindowConfig(patch_side=6, step=3, rank=2))
    cfg = PipelineConfig(window=window, sigma0=sigma0, **cfg_overrides)
    return clean, NoiseSpec(sigma0=sigma0), cfg


def blom_scores(n: int) -> np.ndarray:
    """The exact normal plotting positions the Q-Q code targets."""
    return scipy_stats.norm.ppf((np.arange(1, n + 1) - 0.375) / (n + 0.25))


class TestCoverageRate:
    def test_identical_samples_fully_covered_even_with_zero_sigma(self):
        base = np.arange(24, dtype=np.float64).reshape(4, 3, 2)
        samples = np.tile(base, (5, 1, 1, 1))
        cov, mean_c, std_c = coverage_rate(samples, HsiCube(np.zeros((4, 3, 2))))
        np.testing.assert_array_equal(cov.data, np.ones((4, 3, 2)))
        assert mean_c == 1.0
        assert std_c == 0.0

    def test_zero_sigma_with_spread_samples_covers_nothing(self):
        rng = np.random.default_rng(5)
        samples = rng.standard_normal((6, 3, 3, 2))
        _, mean_c, _ = coverage_rate(samples, HsiCube(np.zeros((3, 3, 2))))
        assert mean_c == 0.0

    def test_matches_nominal_rate_for_gaussian_samples(self):
        # 10^5 trials x 48 voxels: the 95% interval built from the true std
        # must cover 95% of draws to well under half a percent.
        rng = np.random.default_rng(0)
        sigma = 0.7
        samples = rng.normal(0.0, sigma, size=(100_000, 4, 4, 3))
        _, mean_c, std_c = coverage_rate(samples, HsiCube(np.full((4, 4, 3), sigma)))
        assert abs(mean_c - 0.95) < 0.005
        assert std_c < 0.01

    def test_smaller_interval_covers_less(self):
        rng = np.random.default_rng(1)
        samples = rng.standard_normal((500, 4, 4, 3))
        ones = HsiCube(np.ones((4, 4, 3)))
        halved = HsiCube(np.full((4, 4, 3), 0.5))
        _, full_c, _ = coverage_rate(samples, ones)
        _, half_c, _ = coverage_rate(samples, halved)
        assert half_c < full_c

    def test_scaling_everything_by_two_is_exact(self):
        # Multiplying samples and stds by 2.0 scales every float exactly,
        # so each comparison resolves identically.
        rng = np.random.default_rng(2)
        samples = rng.standard_normal((50, 3, 3, 2))
        sigma = HsiCube(np.full((3, 3, 2), 0.8))
        cov_a, _, _ = coverage_rate(samples, sigma)
        cov_b, _, _ = coverage_rate(2.0 * samples, HsiCube(2.0 * sigma.data))
        np.testing.assert_array_equal(cov_a.data, cov_b.data)

    def test_boundary_is_inclusive(self):
        # Two trials at exactly +/- 1.96 around a zero mean sit exactly on
        # the interval edge of a unit std: covered. One ulp less std: not.
        samples = np.array([-1.96, 1.96]).reshape(2, 1, 1, 1)
        on_edge = HsiCube(np.ones((1, 1, 1)))
        inside = HsiCube(np.full((1, 1, 1), np.nextafter(1.0, 0.0)))
        assert coverage_rate(samples, on_edge)[1] == 1.0
        assert coverage_rate(samples, inside)[1] == 0.0
        # A std stack scores each trial against its own std: the trial
        # given the unit std is covered, the one given one ulp less is not.
        stds = np.array([1.0, np.nextafter(1.0, 0.0)]).reshape(2, 1, 1, 1)
        assert coverage_rate(samples, stds)[1] == 0.5
        assert coverage_rate(samples, stds[::-1])[1] == 0.5
        assert coverage_rate(samples, np.ones((2, 1, 1, 1)))[1] == 1.0

    def test_repeated_std_stack_matches_single_std(self):
        rng = np.random.default_rng(3)
        samples = rng.standard_normal((40, 3, 4, 2))
        sigma = HsiCube(rng.uniform(0.5, 1.5, size=(3, 4, 2)))
        once = coverage_rate(samples, sigma)
        stacked = coverage_rate(samples, np.repeat(sigma.data[None], 40, axis=0))
        assert stacked[0].data.tobytes() == once[0].data.tobytes()
        assert stacked[1:] == once[1:]

    def test_rejects_wrong_rank_or_single_trial(self):
        sigma = HsiCube(np.ones((2, 2, 2)))
        with pytest.raises(ValueError, match="trials"):
            coverage_rate(np.zeros((2, 2, 2)), sigma)
        with pytest.raises(ValueError, match="trials"):
            coverage_rate(np.zeros((1, 2, 2, 2)), sigma)

    def test_rejects_mismatched_sigma_dims(self):
        for sigma in (
            HsiCube(np.ones((2, 2, 3))),
            np.ones((2, 2, 2, 2)),  # a std stack one trial short
            np.ones((4, 2, 2, 2)),  # a std stack one trial long
            np.ones((3, 2, 2, 3)),  # a std stack with the wrong dims
            np.ones((2, 2, 2)),  # one std as a bare array, not a cube
        ):
            with pytest.raises(ValueError, match="dims"):
                coverage_rate(np.zeros((3, 2, 2, 2)), sigma)


class TestMonteCarlo:
    def test_noiseless_run_has_full_coverage(self):
        # Two identical trials: their mean is bit-exact (sum of two equal
        # floats halved), deviations are exactly zero, and the inclusive
        # boundary covers them despite the zero-width interval. Three or
        # more trials would reintroduce one-ulp mean rounding.
        clean, _, cfg = mc_setup(sigma0=0.0)
        report = monte_carlo(clean, NoiseSpec(sigma0=0.0), cfg, trials=2)
        assert report.mean_coverage == 1.0
        np.testing.assert_array_equal(report.sigma_hat.data, np.zeros(DIMS))

    def test_runs_are_bit_reproducible(self):
        clean, noise, cfg = mc_setup()
        a = monte_carlo(clean, noise, cfg, trials=5, base_seed=3, keep_samples=True)
        b = monte_carlo(clean, noise, cfg, trials=5, base_seed=3, keep_samples=True)
        np.testing.assert_array_equal(a.samples, b.samples)
        np.testing.assert_array_equal(a.coverage.data, b.coverage.data)
        np.testing.assert_array_equal(a.sigma_hat.data, b.sigma_hat.data)

    def test_trial_l_uses_base_seed_plus_l(self):
        clean, noise, cfg = mc_setup()
        report = monte_carlo(
            clean, noise, cfg, trials=2, base_seed=7, keep_samples=True
        )
        for l in range(2):
            expected = denoise(apply_noise(clean, noise, seed=7 + l), cfg)
            np.testing.assert_array_equal(report.samples[l], expected.data)

    def test_samples_kept_only_on_request(self):
        clean, noise, cfg = mc_setup()
        assert monte_carlo(clean, noise, cfg, trials=2).samples is None
        kept = monte_carlo(clean, noise, cfg, trials=2, keep_samples=True).samples
        assert kept.shape == (2, *DIMS)

    def test_per_trial_sigma_mode(self):
        clean, noise, cfg = mc_setup()
        report = monte_carlo(clean, noise, cfg, trials=4, sigma_mode="per_trial")
        assert report.sigma_mode == "per_trial"
        assert 0.0 <= report.mean_coverage <= 1.0
        # The attached reference std is still trial 0's closed form.
        assert report.sigma_hat.dims == DIMS

    def test_trial0_coverage_is_coverage_rate_of_its_samples(self):
        # One counting path: the report's coverage is coverage_rate of the
        # kept samples against trial 0's std, bit for bit.
        clean, noise, cfg = mc_setup()
        report = monte_carlo(clean, noise, cfg, trials=6, base_seed=4, keep_samples=True)
        cov, mean_c, std_c = coverage_rate(report.samples, report.sigma_hat)
        assert cov.data.tobytes() == report.coverage.data.tobytes()
        assert (mean_c, std_c) == (report.mean_coverage, report.std_coverage)

    @pytest.mark.parametrize("sigma_mode", ["trial0", "per_trial"])
    def test_coverage_goes_through_coverage_rate_once(self, monkeypatch, sigma_mode):
        # One counting path: monte_carlo scores its kept sample stack with a
        # single coverage_rate call, whose result the report carries.
        calls = []
        real = validate.coverage_rate

        def spy(samples, sigma_hat):
            calls.append((samples, sigma_hat))
            return real(samples, sigma_hat)

        monkeypatch.setattr(validate, "coverage_rate", spy)
        clean, noise, cfg = mc_setup()
        report = monte_carlo(clean, noise, cfg, trials=3, sigma_mode=sigma_mode,
                             keep_samples=True)
        assert len(calls) == 1
        samples, sigma_hat = calls[0]
        assert samples is report.samples
        if sigma_mode == "trial0":
            assert sigma_hat is report.sigma_hat
        else:
            assert sigma_hat.shape == report.samples.shape
            assert sigma_hat[0].tobytes() == report.sigma_hat.data.tobytes()

    def test_per_trial_coverage_matches_whole_stack_oracle(self):
        clean, noise, cfg = mc_setup()
        report = monte_carlo(clean, noise, cfg, trials=4, base_seed=2,
                             sigma_mode="per_trial", keep_samples=True)
        stds = np.stack([
            np.sqrt(denoise_with_uq(apply_noise(clean, noise, seed=2 + l), cfg)[1].data)
            for l in range(4)
        ])
        samples = report.samples
        covered = np.abs(samples - samples.mean(axis=0)) <= Z95 * stds
        assert report.coverage.data.tobytes() == covered.mean(axis=0).tobytes()

    def test_report_metadata(self):
        clean, noise, cfg = mc_setup()
        report = monte_carlo(clean, noise, cfg, trials=3, base_seed=11)
        assert report.trials == 3
        assert report.base_seed == 11
        assert report.sigma0 == noise.sigma0
        assert report.impulse_ratio == noise.impulse_ratio
        assert report.config == cfg
        assert len(report.trial_seconds) == 3
        assert all(t > 0 for t in report.trial_seconds)

    def test_rejects_single_trial_and_unknown_mode(self):
        clean, noise, cfg = mc_setup()
        with pytest.raises(ValueError, match="trials"):
            monte_carlo(clean, noise, cfg, trials=1)
        with pytest.raises(ValueError, match="trials must be an integer >= 2"):
            monte_carlo(clean, noise, cfg, trials=2.5)
        with pytest.raises(ValueError, match="trials must be an integer >= 2"):
            rank_sweep(clean, noise, cfg, ranks=[2], trials=2.5)
        assert monte_carlo(clean, noise, cfg, trials=np.int64(2)).trials == 2
        with pytest.raises(ValueError, match="sigma_mode"):
            monte_carlo(clean, noise, cfg, trials=2, sigma_mode="oracle")


class TestQqData:
    def test_normal_scores_land_on_identity_line(self):
        scores = blom_scores(100)
        pairs = qq_data(scores)
        np.testing.assert_allclose(pairs[:, 0], scores, atol=1e-12)
        np.testing.assert_allclose(pairs[:, 1], pairs[:, 0], atol=1e-9)

    def test_affine_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(150)
        base = qq_data(x)
        shifted = qq_data(5.0 + 2.0 * x)
        np.testing.assert_allclose(shifted, base, atol=1e-10)

    def test_exponential_sample_deviates_strongly(self):
        x = np.random.default_rng(0).exponential(size=200)
        pairs = qq_data(x)
        assert np.abs(pairs[:, 1] - pairs[:, 0]).max() > 1.0

    def test_output_layout(self):
        pairs = qq_data(np.random.default_rng(4).standard_normal(40))
        assert pairs.shape == (40, 2)
        assert (np.diff(pairs[:, 0]) > 0).all()
        assert (np.diff(pairs[:, 1]) >= 0).all()

    def test_rejects_tiny_or_constant_samples(self):
        with pytest.raises(ValueError, match="at least 3"):
            qq_data(np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="zero variance"):
            qq_data(np.full(10, 3.5))


@pytest.mark.parametrize("check", [qq_data, shapiro_wilk])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_sample_rejected_before_scipy_loads(monkeypatch, check, bad):
    monkeypatch.setitem(sys.modules, "scipy.stats", None)  # importing it now fails
    x = np.random.default_rng(5).standard_normal(20)
    x[7] = bad
    with pytest.raises(ValueError, match=r"non-finite values \(1 of 20\)"):
        check(x)


class TestShapiroWilk:
    def test_null_rejection_rate_is_calibrated(self):
        # Truly normal inputs should be rejected at roughly the nominal 5%.
        rejections = sum(
            shapiro_wilk(np.random.default_rng(1000 + i).standard_normal(50)).p_value
            < 0.05
            for i in range(200)
        )
        assert 2 <= rejections <= 20

    def test_detects_uniform_samples(self):
        rejections = sum(
            shapiro_wilk(np.random.default_rng(i).uniform(size=100)).p_value < 0.05
            for i in range(50)
        )
        assert rejections >= 45

    def test_normal_scores_have_statistic_near_one(self):
        report = shapiro_wilk(blom_scores(100))
        assert report.sw_statistic > 0.995
        assert report.n == 100

    def test_sample_size_bounds(self):
        with pytest.raises(ValueError, match=r"\[3, 5000\]"):
            shapiro_wilk(np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match=r"\[3, 5000\]"):
            shapiro_wilk(np.random.default_rng(0).standard_normal(5001))

    def test_rejects_constant_sample(self):
        with pytest.raises(ValueError, match="zero variance"):
            shapiro_wilk(np.full(20, 1.0))


class TestRankSweep:
    def test_single_rank_matches_direct_run(self):
        clean, noise, cfg = mc_setup()
        report = rank_sweep(clean, noise, cfg, ranks=[3], trials=4, base_seed=5)
        direct_cfg = PipelineConfig(
            window=WindowConfig(patch_side=6, step=3, rank=3), sigma0=noise.sigma0
        )
        direct = monte_carlo(clean, noise, direct_cfg, trials=4, base_seed=5)
        assert report.rows == [(3, direct.mean_coverage)]

    def test_rows_cover_requested_grid(self):
        clean, noise, cfg = mc_setup()
        report = rank_sweep(clean, noise, cfg, ranks=[1, 2, 4], trials=3)
        assert [r for r, _ in report.rows] == [1, 2, 4]
        assert all(0.0 <= c <= 1.0 for _, c in report.rows)
        assert report.trials == 3
        assert report.sigma0 == noise.sigma0

    def test_every_rank_checked_before_the_first_trial(self, monkeypatch):
        # Rank 9 exceeds the cube's 6 bands; rank 2 comes first in the grid.
        clean, noise, cfg = mc_setup()
        calls = []
        monkeypatch.setattr(validate, "monte_carlo", lambda *a, **k: calls.append(1))
        with pytest.raises(ValueError, match="rank 9 exceeds"):
            rank_sweep(clean, noise, cfg, ranks=[2, 9], trials=2)
        assert calls == []

    def test_fractional_rank_rejected_before_the_first_trial(self, monkeypatch):
        # int(1.5) would fit rank 1 and label the row 1.
        clean, noise, cfg = mc_setup()
        calls = []
        monkeypatch.setattr(validate, "monte_carlo", lambda *a, **k: calls.append(1))
        with pytest.raises(ValueError, match="rank must be an integer"):
            rank_sweep(clean, noise, cfg, ranks=[2, 1.5], trials=2)
        assert calls == []

    def test_numpy_integer_ranks_give_python_int_rows(self):
        clean, noise, cfg = mc_setup()
        report = rank_sweep(clean, noise, cfg, ranks=np.array([1, 2], dtype=np.int64), trials=2)
        assert [type(r) for r, _ in report.rows] == [int, int]
        assert [r for r, _ in report.rows] == [1, 2]


class TestImpulseSweep:
    def test_grid_order_and_zero_ratio_matches_gaussian_run(self):
        clean, _, _ = mc_setup()
        window = WindowConfig(patch_side=6, step=3, rank=2, sparse_card=0.1)
        cfg = PipelineConfig(window=window, sigma0=0.05, max_iter=10)
        report = impulse_sweep(
            clean, [0.03, 0.05], [0.0, 0.05], cfg, trials=4, base_seed=4
        )
        assert [(s, r) for s, r, _, _ in report.rows] == [
            (0.03, 0.0), (0.03, 0.05), (0.05, 0.0), (0.05, 0.05),
        ]
        assert all(0.0 <= c <= 1.0 and s >= 0.0 for _, _, c, s in report.rows)

        direct_cfg = PipelineConfig(window=window, sigma0=0.05, max_iter=10)
        direct = monte_carlo(
            clean, NoiseSpec(sigma0=0.05), direct_cfg, trials=4, base_seed=4
        )
        assert report.rows[2][2] == direct.mean_coverage
        assert report.rows[2][3] == direct.std_coverage

    def test_impulses_do_not_improve_coverage(self):
        clean, _, _ = mc_setup()
        window = WindowConfig(patch_side=6, step=3, rank=2, sparse_card=0.1)
        cfg = PipelineConfig(window=window, sigma0=0.05, max_iter=10)
        report = impulse_sweep(clean, [0.05], [0.0, 0.10], cfg, trials=30, base_seed=4)
        clean_cov = report.rows[0][2]
        impulse_cov = report.rows[1][2]
        assert impulse_cov <= clean_cov + 0.02

    @pytest.mark.parametrize("sigma0_list, ratio_list, fragment", [
        ([0.05], [0.0, 1.5], "impulse_ratio"),
        ([0.05, -1.0], [0.0], "sigma0"),
    ])
    def test_every_grid_point_checked_before_the_first_trial(
            self, monkeypatch, sigma0_list, ratio_list, fragment):
        clean, _, cfg = mc_setup()
        calls = []
        monkeypatch.setattr(validate, "monte_carlo", lambda *a, **k: calls.append(1))
        with pytest.raises(ValueError, match=fragment):
            impulse_sweep(clean, sigma0_list, ratio_list, cfg, trials=2)
        assert calls == []

    def test_window_checked_against_the_cube_before_the_first_trial(self, monkeypatch):
        clean, _, _ = mc_setup()
        cfg = PipelineConfig(window=WindowConfig(patch_side=13, step=3, rank=2))
        calls = []
        monkeypatch.setattr(validate, "monte_carlo", lambda *a, **k: calls.append(1))
        with pytest.raises(ValueError, match="patch_side 13 exceeds"):
            impulse_sweep(clean, [0.05], [0.0], cfg, trials=2)
        assert calls == []


class TestTimingCompare:
    def test_fields_positive_and_trials_recorded(self):
        clean, noise, cfg = mc_setup()
        report = timing_compare(clean, noise, cfg, mc_trials=2)
        assert report.mc_total_s > 0
        assert report.lrma_only_s > 0
        assert report.lrma_plus_uq_s > 0
        assert report.mc_trials == 2

    def test_mc_route_cost_grows_with_trials(self):
        clean, noise, cfg = mc_setup()
        short = timing_compare(clean, noise, cfg, mc_trials=1)
        long = timing_compare(clean, noise, cfg, mc_trials=8)
        assert long.mc_total_s > short.mc_total_s

    def test_rejects_zero_trials(self):
        clean, noise, cfg = mc_setup()
        with pytest.raises(ValueError, match="mc_trials"):
            timing_compare(clean, noise, cfg, mc_trials=0)
        with pytest.raises(ValueError, match="mc_trials must be an integer >= 1"):
            timing_compare(clean, noise, cfg, mc_trials=1.5)
        assert timing_compare(clean, noise, cfg, mc_trials=np.int64(1)).mc_trials == 1

    def test_mc_route_keeps_no_trial_stack(self):
        # The trial-based variance streams through two cube-sized sums; a
        # (trials, M, N, P) stack alone would be 20 cubes here.
        clean = synth_lowrank_cube((64, 64, 32), true_rank=3, seed=5)
        cfg = PipelineConfig(window=WindowConfig(patch_side=8, step=4, rank=3), sigma0=0.05)
        tracemalloc.start()
        try:
            timing_compare(clean, NoiseSpec(sigma0=0.05), cfg, mc_trials=20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * clean.data.nbytes
