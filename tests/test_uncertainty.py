"""The window-pair correlation model, the aggregation of overlapping
per-patch variances into a voxel variance cube, and the leverage-split
variance that the pipeline uses."""

import numpy as np
import pytest

from lrma_uq import (
    CorrelationRule,
    WindowConfig,
    aggregate_variance,
    enumerate_patches,
    overlap_ratio,
    split_variance,
)


def brute_force_variance(patch_vars, grid, rule):
    """Oracle: per-voxel variance of the window average by direct summation.

    patch_vars holds one variance patch per window, in grid.origins order.

    For each voxel, loop over all covering windows, add their variances,
    add 2 * corr * sigma_p * sigma_q for every unordered window pair, and
    divide by the squared cover count.
    """
    j = grid.config.patch_side
    m, n, p = grid.dims
    by_origin = dict(zip(grid.origins, patch_vars))
    out = np.zeros((m, n, p))
    for row in range(m):
        for col in range(n):
            covering = grid.covering_origins(row, col)
            phi = len(covering)
            for band in range(p):
                sig = [
                    np.sqrt(by_origin[o][row - o[0], col - o[1], band])
                    for o in covering
                ]
                total = sum(s * s for s in sig)
                for a in range(phi):
                    for b in range(a + 1, phi):
                        eta = rule.correlation(covering[a], covering[b], j)
                        total += 2.0 * eta * sig[a] * sig[b]
                out[row, col, band] = total / (phi * phi)
    return out


def shared_entry_fraction(origin_p, origin_q, patch_side):
    """Oracle: shared footprint pixels over pixels per window, by set
    intersection (the band axis is identical for both windows and cancels)."""
    fp = {
        (r, c)
        for r in range(origin_p[0], origin_p[0] + patch_side)
        for c in range(origin_p[1], origin_p[1] + patch_side)
    }
    fq = {
        (r, c)
        for r in range(origin_q[0], origin_q[0] + patch_side)
        for c in range(origin_q[1], origin_q[1] + patch_side)
    }
    return len(fp & fq) / (patch_side * patch_side)


def random_variance_patches(rng, grid):
    """One random variance patch per window, stacked in grid.origins order."""
    j = grid.config.patch_side
    p = grid.dims[2]
    return np.stack([rng.uniform(0.5, 2.0, (j, j, p)) for _ in grid.origins])


class TestOverlapRatio:
    def test_half_overlap_for_adjacent_windows(self):
        # Step = half the window side, any side: adjacent pairs share half
        # their footprint, diagonal pairs a quarter. Exact equalities.
        for j in (2, 8, 20):
            s = j // 2
            assert overlap_ratio((0, 0), (0, s), j) == 0.5
            assert overlap_ratio((0, 0), (s, 0), j) == 0.5
            assert overlap_ratio((0, 0), (s, s), j) == 0.25

    def test_identical_and_disjoint(self):
        assert overlap_ratio((3, 5), (3, 5), 4) == 1.0
        assert overlap_ratio((0, 0), (0, 4), 4) == 0.0
        assert overlap_ratio((0, 0), (9, 9), 4) == 0.0

    def test_symmetry_and_translation_invariance(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            p = tuple(rng.integers(0, 10, 2))
            q = tuple(rng.integers(0, 10, 2))
            assert overlap_ratio(p, q, 5) == overlap_ratio(q, p, 5)
            shift = tuple(rng.integers(0, 7, 2))
            ps = (p[0] + shift[0], p[1] + shift[1])
            qs = (q[0] + shift[0], q[1] + shift[1])
            assert overlap_ratio(p, q, 5) == overlap_ratio(ps, qs, 5)

    def test_matches_footprint_intersection_oracle(self):
        rng = np.random.default_rng(36)
        for _ in range(50):
            p = tuple(rng.integers(0, 12, 2))
            q = tuple(rng.integers(0, 12, 2))
            for j in (3, 4, 7):
                assert overlap_ratio(p, q, j) == shared_entry_fraction(p, q, j)


class TestCorrelationRule:
    def test_self_pair_is_one_in_every_mode(self):
        for mode in ("overlap", "independent", "full"):
            rule = CorrelationRule(mode=mode)
            assert rule.correlation((2, 3), (2, 3), 4) == 1.0

    def test_mode_values_for_distinct_windows(self):
        assert CorrelationRule("independent").correlation((0, 0), (0, 2), 4) == 0.0
        assert CorrelationRule("full").correlation((0, 0), (0, 2), 4) == 1.0
        assert CorrelationRule("overlap").correlation((0, 0), (0, 2), 4) == 0.5

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            CorrelationRule("diagonal")


class TestAggregateVariance:
    def test_two_window_worked_example(self):
        # Two side-2 windows at (0,0) and (0,1) on a 2x3 image share half
        # their entries. With unit variances everywhere, shared voxels get
        # (1 + 1 + 2*0.5) / 4 = 0.75 and exclusive voxels keep 1.0.
        grid = enumerate_patches((2, 3, 1), WindowConfig(patch_side=2, step=1, rank=1))
        patches = np.ones((len(grid), 2, 2, 1))
        out = aggregate_variance(patches, grid, CorrelationRule("overlap"))
        np.testing.assert_allclose(out.data[:, 1, 0], 0.75, rtol=0, atol=1e-15)
        np.testing.assert_allclose(out.data[:, 0, 0], 1.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(out.data[:, 2, 0], 1.0, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("mode", ["overlap", "independent", "full"])
    def test_matches_brute_force_on_clamped_grid(self, mode):
        # 11x9 image with side 4, step 3 has clamped, unevenly spaced
        # origins in both axes; the vectorized path must agree with the
        # per-voxel oracle everywhere.
        rng = np.random.default_rng(38)
        grid = enumerate_patches((11, 9, 2), WindowConfig(patch_side=4, step=3, rank=1))
        patches = random_variance_patches(rng, grid)
        rule = CorrelationRule(mode)
        out = aggregate_variance(patches, grid, rule)
        oracle = brute_force_variance(patches, grid, rule)
        np.testing.assert_allclose(out.data, oracle, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("mode", ["overlap", "independent", "full"])
    def test_matches_brute_force_on_uniform_grid(self, mode):
        rng = np.random.default_rng(39)
        grid = enumerate_patches((10, 10, 3), WindowConfig(patch_side=4, step=2, rank=1))
        patches = random_variance_patches(rng, grid)
        rule = CorrelationRule(mode)
        out = aggregate_variance(patches, grid, rule)
        oracle = brute_force_variance(patches, grid, rule)
        np.testing.assert_allclose(out.data, oracle, rtol=1e-12, atol=1e-14)

    def test_full_mode_with_equal_variance_is_exact(self):
        # Perfectly correlated equal-variance windows must yield exactly the
        # single-window variance: averaging adds no information.
        grid = enumerate_patches((10, 10, 2), WindowConfig(patch_side=4, step=2, rank=1))
        patches = np.full((len(grid), 4, 4, 2), 0.09)
        out = aggregate_variance(patches, grid, CorrelationRule("full"))
        np.testing.assert_allclose(out.data, 0.09, rtol=0, atol=1e-12)

    def test_independent_mode_is_sum_over_phi_squared(self):
        rng = np.random.default_rng(40)
        grid = enumerate_patches((8, 8, 2), WindowConfig(patch_side=4, step=2, rank=1))
        patches = random_variance_patches(rng, grid)
        out = aggregate_variance(patches, grid, CorrelationRule("independent"))
        # Oracle: scatter-add variances, divide by coverage twice.
        acc = np.zeros((8, 8, 2))
        for (r, c), vp in zip(grid.origins, patches):
            acc[r:r + 4, c:c + 4, :] += vp
        oracle = acc / grid.coverage.data**2
        np.testing.assert_allclose(out.data, oracle, rtol=0, atol=1e-15)

    def test_no_overlap_returns_patch_variances_exactly(self):
        rng = np.random.default_rng(41)
        grid = enumerate_patches((8, 8, 2), WindowConfig(patch_side=4, step=4, rank=1))
        patches = random_variance_patches(rng, grid)
        out = aggregate_variance(patches, grid, CorrelationRule("overlap"))
        for (r, c), vp in zip(grid.origins, patches):
            np.testing.assert_array_equal(out.data[r:r + 4, c:c + 4, :], vp)

    def test_mode_ordering_is_monotone(self):
        rng = np.random.default_rng(42)
        grid = enumerate_patches((10, 10, 2), WindowConfig(patch_side=4, step=2, rank=1))
        patches = random_variance_patches(rng, grid)
        ind = aggregate_variance(patches, grid, CorrelationRule("independent")).data
        ovl = aggregate_variance(patches, grid, CorrelationRule("overlap")).data
        ful = aggregate_variance(patches, grid, CorrelationRule("full")).data
        assert np.all(ind <= ovl + 1e-15)
        assert np.all(ovl <= ful + 1e-15)

    def test_array_input_copy_flag(self):
        # The input is copied before it serves as scratch: the caller's
        # array is left untouched in every mode.
        rng = np.random.default_rng(44)
        grid = enumerate_patches((8, 8, 2), WindowConfig(patch_side=4, step=2, rank=1))
        stacked = random_variance_patches(rng, grid)
        pristine = stacked.copy()
        for mode in ("overlap", "independent", "full"):
            aggregate_variance(stacked, grid, CorrelationRule(mode))
            np.testing.assert_array_equal(stacked, pristine)

    def test_array_input_wrong_shape_rejected(self):
        grid = enumerate_patches((6, 6, 1), WindowConfig(patch_side=3, step=3, rank=1))
        with pytest.raises(ValueError, match="shape"):
            aggregate_variance(np.ones((3, 3, 3, 1)), grid)

    def test_negative_variance_rejected(self):
        grid = enumerate_patches((6, 6, 1), WindowConfig(patch_side=3, step=3, rank=1))
        patches = -np.ones((len(grid), 3, 3, 1))
        with pytest.raises(ValueError, match="negative"):
            aggregate_variance(patches, grid)


class TestSplitVariance:
    def test_lies_between_independent_and_full_bounds(self):
        # By Cauchy-Schwarz the split never leaves the [independent, full]
        # bracket of the same per-window variances sigma0^2 * (lu + lv).
        rng = np.random.default_rng(46)
        grid = enumerate_patches((10, 10, 3), WindowConfig(patch_side=4, step=2, rank=1))
        row_lev = rng.uniform(0.0, 1.0, (len(grid), 16))
        col_lev = rng.uniform(0.0, 1.0, (len(grid), 3))
        patches = (row_lev[:, :, None] + col_lev[:, None, :]).reshape(len(grid), 4, 4, 3)
        ind = aggregate_variance(patches, grid, CorrelationRule("independent")).data
        ful = aggregate_variance(patches, grid, CorrelationRule("full")).data
        split = split_variance(row_lev, col_lev, grid, 1.0).data
        assert np.all(ind <= split * (1 + 1e-12))
        assert np.all(split <= ful * (1 + 1e-12))
        assert split.mean() > ind.mean()

    def test_leverage_shape_mismatch_rejected(self):
        grid = enumerate_patches((6, 6, 2), WindowConfig(patch_side=3, step=3, rank=1))
        with pytest.raises(ValueError, match="leverage shapes"):
            split_variance(np.ones((4, 9)), np.ones((4, 3)), grid, 0.1)
