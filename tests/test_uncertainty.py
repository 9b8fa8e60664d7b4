"""The window-pair correlation model and the leverage-split variance of
the window average that the pipeline uses."""

import numpy as np
import pytest

from lrma_uq import WindowConfig, aggregate_variance, enumerate_patches, overlap_ratio
from oracles import covering_origins


def brute_force_variance(row_lev, col_lev, grid, sigma0):
    """Oracle: per-voxel leverage-split variance by direct summation.

    row_lev and col_lev hold one row per window, in grid.origins order.

    For each voxel, loop over all covering windows: add
    overlap_ratio(p, q) * sqrt(lu_p * lu_q) over every ordered window pair
    (a window with itself included), add the square of the sum of
    sqrt(lv_p), scale by sigma0^2 and divide by the squared cover count.
    """
    j = grid.config.patch_side
    m, n, p = grid.dims
    index = {o: k for k, o in enumerate(grid.origins)}
    out = np.zeros((m, n, p))
    for row in range(m):
        for col in range(n):
            covering = covering_origins(grid, row, col)
            phi = len(covering)
            lu = [row_lev[index[o], (row - o[0]) * j + (col - o[1])] for o in covering]
            spatial = sum(
                overlap_ratio(covering[a], covering[b], j) * np.sqrt(lu[a] * lu[b])
                for a in range(phi)
                for b in range(phi)
            )
            for band in range(p):
                spectral = sum(np.sqrt(col_lev[index[o], band]) for o in covering) ** 2
                out[row, col, band] = sigma0 * sigma0 * (spatial + spectral) / (phi * phi)
    return out


def constant_correlation_variance(patch_vars, grid, eta):
    """Oracle: variance of the window average when every pair of distinct
    windows has correlation eta between their whole per-window stds.

    patch_vars holds one variance patch per window, in grid.origins order.
    eta = 0 gives the independent lower bound, eta = 1 the fully correlated
    upper bound.
    """
    m, n, p = grid.dims
    by_origin = dict(zip(grid.origins, patch_vars))
    out = np.zeros((m, n, p))
    for row in range(m):
        for col in range(n):
            covering = covering_origins(grid, row, col)
            phi = len(covering)
            for band in range(p):
                sig = [
                    np.sqrt(by_origin[o][row - o[0], col - o[1], band])
                    for o in covering
                ]
                total = sum(s * s for s in sig)
                for a in range(phi):
                    for b in range(a + 1, phi):
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


def random_leverages(rng, grid):
    """Random row and column leverages, one row per window in grid.origins
    order."""
    j = grid.config.patch_side
    p = grid.dims[2]
    return rng.uniform(0.0, 1.0, (len(grid), j * j)), rng.uniform(0.0, 1.0, (len(grid), p))


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

    def test_rejects_non_positive_patch_side(self):
        with pytest.raises(ValueError, match="^patch_side must be >= 1, got 0$"):
            overlap_ratio((0, 0), (0, 0), 0)

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

    def test_array_call_equals_scalar_calls(self):
        # Origin arrays broadcast; disjoint pairs read 0.0 as in a scalar call.
        p, q = np.random.default_rng(37).integers(0, 12, (2, 2, 60))
        got = overlap_ratio((p[0], p[1]), (q[0], q[1]), 4)
        want = [overlap_ratio((int(p[0, i]), int(p[1, i])), (int(q[0, i]), int(q[1, i])), 4)
                for i in range(60)]
        assert got.shape == (60,) and got.tolist() == want
        assert 0.0 in want and max(want) > 0.0

    def test_matches_footprint_intersection_oracle(self):
        rng = np.random.default_rng(36)
        for _ in range(50):
            p = tuple(rng.integers(0, 12, 2))
            q = tuple(rng.integers(0, 12, 2))
            for j in (3, 4, 7):
                assert overlap_ratio(p, q, j) == shared_entry_fraction(p, q, j)


class TestAggregateVariance:
    def test_two_window_worked_example(self):
        # Two side-2 windows at (0,0) and (0,1) on a 2x3 image share half
        # their entries. With unit row leverage and zero column leverage,
        # shared voxels get (1 + 1 + 2*0.5) / 4 = 0.75 and exclusive voxels
        # keep 1.0.
        grid = enumerate_patches((2, 3, 1), WindowConfig(patch_side=2, step=1, rank=1))
        out = aggregate_variance(np.ones((len(grid), 4)), np.zeros((len(grid), 1)), grid, 1.0)
        np.testing.assert_allclose(out.data[:, 1, 0], 0.75, rtol=0, atol=1e-15)
        np.testing.assert_allclose(out.data[:, 0, 0], 1.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(out.data[:, 2, 0], 1.0, rtol=0, atol=1e-15)

    def test_matches_brute_force_on_clamped_grid(self):
        # 11x9 image with side 4, step 3 has clamped, unevenly spaced
        # origins in both axes; the vectorized path must agree with the
        # per-voxel oracle everywhere.
        rng = np.random.default_rng(38)
        grid = enumerate_patches((11, 9, 2), WindowConfig(patch_side=4, step=3, rank=1))
        row_lev, col_lev = random_leverages(rng, grid)
        out = aggregate_variance(row_lev, col_lev, grid, 0.7)
        oracle = brute_force_variance(row_lev, col_lev, grid, 0.7)
        np.testing.assert_allclose(out.data, oracle, rtol=1e-12, atol=1e-14)

    def test_matches_brute_force_on_uniform_grid(self):
        rng = np.random.default_rng(39)
        grid = enumerate_patches((10, 10, 3), WindowConfig(patch_side=4, step=2, rank=1))
        row_lev, col_lev = random_leverages(rng, grid)
        out = aggregate_variance(row_lev, col_lev, grid, 0.7)
        oracle = brute_force_variance(row_lev, col_lev, grid, 0.7)
        np.testing.assert_allclose(out.data, oracle, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("dims, side, step", [
        # One column origin but five row origins: slot counts differ by axis.
        ((12, 5, 2), 5, 2),
        # Step 1: J row and J column origins cover each interior pixel.
        ((9, 8, 2), 3, 1),
    ])
    def test_matches_brute_force_on_slot_geometries(self, dims, side, step):
        rng = np.random.default_rng(47)
        grid = enumerate_patches(dims, WindowConfig(patch_side=side, step=step, rank=1))
        row_lev, col_lev = random_leverages(rng, grid)
        out = aggregate_variance(row_lev, col_lev, grid, 0.7)
        oracle = brute_force_variance(row_lev, col_lev, grid, 0.7)
        np.testing.assert_allclose(out.data, oracle, rtol=1e-12, atol=1e-14)

    def test_singly_covered_corners_are_exact(self):
        # On an overlapping grid the four corner pixels lie in one window
        # each, so their spatial part is exactly that window's sigma0^2 * lu,
        # with no square root taken and undone (the spectral part is the
        # square of its single root, as on a tiling).
        rng = np.random.default_rng(49)
        grid = enumerate_patches((10, 10, 3), WindowConfig(patch_side=4, step=2, rank=1))
        row_lev, col_lev = random_leverages(rng, grid)
        out = aggregate_variance(row_lev, col_lev, grid, 0.7)
        index = {o: k for k, o in enumerate(grid.origins)}
        s2 = 0.7 * 0.7
        for row, col in ((0, 0), (0, 9), (9, 0), (9, 9)):
            (origin,) = covering_origins(grid, row, col)
            k = index[origin]
            lu = row_lev[k, (row - origin[0]) * 4 + (col - origin[1])]
            expected = s2 * lu + np.sqrt(s2 * col_lev[k]) ** 2
            np.testing.assert_array_equal(out.data[row, col], expected)

    def test_full_mode_with_equal_variance_is_exact(self):
        # The spectral part is fully correlated: equal copies of it must
        # yield exactly the single-window variance, since averaging adds
        # no information.
        grid = enumerate_patches((10, 10, 2), WindowConfig(patch_side=4, step=2, rank=1))
        out = aggregate_variance(
            np.zeros((len(grid), 16)), np.full((len(grid), 2), 0.09), grid, 1.0
        )
        np.testing.assert_allclose(out.data, 0.09, rtol=0, atol=1e-12)

    def test_no_overlap_returns_patch_variances_exactly(self):
        rng = np.random.default_rng(41)
        grid = enumerate_patches((8, 8, 2), WindowConfig(patch_side=4, step=4, rank=1))
        row_lev, col_lev = random_leverages(rng, grid)
        out = aggregate_variance(row_lev, col_lev, grid, 1.0)
        for (r, c), lu, lv in zip(grid.origins, row_lev, col_lev):
            expected = lu.reshape(4, 4, 1) + np.sqrt(lv) ** 2
            np.testing.assert_array_equal(out.data[r:r + 4, c:c + 4, :], expected)

    def test_array_input_copy_flag(self):
        # The caller's leverage arrays are left untouched.
        rng = np.random.default_rng(44)
        grid = enumerate_patches((8, 8, 2), WindowConfig(patch_side=4, step=2, rank=1))
        row_lev, col_lev = random_leverages(rng, grid)
        pristine = row_lev.copy(), col_lev.copy()
        aggregate_variance(row_lev, col_lev, grid, 0.3)
        np.testing.assert_array_equal(row_lev, pristine[0])
        np.testing.assert_array_equal(col_lev, pristine[1])

    def test_negative_variance_rejected(self):
        # On a tiling, a negative leverage would otherwise come out as a
        # negative variance.
        grid = enumerate_patches((6, 6, 2), WindowConfig(patch_side=3, step=3, rank=1))
        ones_u, ones_v = np.ones((len(grid), 9)), np.ones((len(grid), 2))
        with pytest.raises(ValueError, match="negative leverage"):
            aggregate_variance(-ones_u, ones_v, grid, 0.1)
        with pytest.raises(ValueError, match="negative leverage"):
            aggregate_variance(ones_u, -ones_v, grid, 0.1)

    def test_negative_leverage_rejected_on_overlapping_grid(self):
        # With overlaps, a negative leverage would otherwise reach a square
        # root and come out as NaN.
        grid = enumerate_patches((6, 6, 2), WindowConfig(patch_side=3, step=1, rank=1))
        ones_u, ones_v = np.ones((len(grid), 9)), np.ones((len(grid), 2))
        with pytest.raises(ValueError, match="negative leverage"):
            aggregate_variance(-ones_u, ones_v, grid, 0.1)
        with pytest.raises(ValueError, match="negative leverage"):
            aggregate_variance(ones_u, -ones_v, grid, 0.1)

    @pytest.mark.parametrize("sigma0", [-0.1, float("nan"), float("inf")])
    def test_bad_sigma0_rejected_before_any_work(self, sigma0):
        # Leverages of the wrong shape would fail next: sigma0 is checked first.
        grid = enumerate_patches((6, 6, 2), WindowConfig(patch_side=3, step=3, rank=1))
        with pytest.raises(ValueError, match="sigma0 must be finite and >= 0"):
            aggregate_variance(np.ones((1, 1)), np.ones((1, 1)), grid, sigma0)


class TestSplitVariance:
    def test_lies_between_independent_and_full_bounds(self):
        # By Cauchy-Schwarz the split never leaves the [independent, full]
        # bracket of the same per-window variances sigma0^2 * (lu + lv).
        rng = np.random.default_rng(46)
        grid = enumerate_patches((10, 10, 3), WindowConfig(patch_side=4, step=2, rank=1))
        row_lev, col_lev = random_leverages(rng, grid)
        patches = (row_lev[:, :, None] + col_lev[:, None, :]).reshape(len(grid), 4, 4, 3)
        ind = constant_correlation_variance(patches, grid, 0.0)
        ful = constant_correlation_variance(patches, grid, 1.0)
        split = aggregate_variance(row_lev, col_lev, grid, 1.0).data
        assert np.all(ind <= split * (1 + 1e-12))
        assert np.all(split <= ful * (1 + 1e-12))
        assert split.mean() > ind.mean()

    def test_leverage_shape_mismatch_rejected(self):
        grid = enumerate_patches((6, 6, 2), WindowConfig(patch_side=3, step=3, rank=1))
        with pytest.raises(ValueError, match="leverage shapes"):
            aggregate_variance(np.ones((4, 9)), np.ones((4, 3)), grid, 0.1)
