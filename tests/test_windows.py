"""Sliding-window enumeration, coverage counts, patch reshaping, and
mean aggregation of overlapping patches."""

import numpy as np
import pytest

from lrma_uq import (
    HsiCube,
    VoxelIndex,
    WindowConfig,
    aggregate_mean,
    enumerate_patches,
    extract_patch,
    hadamard_divide,
    patch_to_matrix,
    scatter_add_patch,
)


def brute_force_coverage(dims, origins, patch_side):
    """Oracle: count covering windows per voxel by looping over origins."""
    q = np.zeros(dims, dtype=np.float64)
    for r, c in origins:
        q[r:r + patch_side, c:c + patch_side, :] += 1.0
    return q


class TestWindowConfig:
    def test_defaults(self):
        cfg = WindowConfig()
        assert (cfg.patch_side, cfg.step, cfg.rank, cfg.sparse_card) == (20, 4, 7, 0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"patch_side": 0},
            {"step": 0},
            {"patch_side": 4, "step": 5},
            {"rank": 0},
            {"sparse_card": -1},
            {"sparse_card": 2.999},
            {"sparse_card": 1.5},
            {"rank": 2.5},
            {"patch_side": 8.5},
            {"step": 2.5},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError, match=list(kwargs)[0]):
            WindowConfig(**kwargs)

    def test_numpy_integer_counts_accepted(self):
        cfg = WindowConfig(patch_side=np.int64(8), step=np.int32(4), rank=np.int16(3))
        assert (cfg.patch_side, cfg.step, cfg.rank) == (8, 4, 3)

    @pytest.mark.parametrize("sparse_card", [float("nan"), float("inf")])
    def test_non_finite_sparse_card_rejected(self, sparse_card):
        with pytest.raises(ValueError, match="sparse_card must be finite"):
            WindowConfig(sparse_card=sparse_card)

    def test_validate_for_rejects_oversized_window(self):
        with pytest.raises(ValueError, match="patch_side"):
            WindowConfig(patch_side=8, step=4).validate_for((6, 10, 5))

    def test_validate_for_rejects_oversized_rank(self):
        with pytest.raises(ValueError, match="rank"):
            WindowConfig(patch_side=2, step=1, rank=5).validate_for((8, 8, 3))

    def test_sparse_count_resolution(self):
        assert WindowConfig(sparse_card=0).sparse_count(1000) == 0
        assert WindowConfig(sparse_card=0.1).sparse_count(1000) == 100
        assert WindowConfig(sparse_card=17).sparse_count(1000) == 17


class TestEnumeratePatches:
    def test_single_window_exact_fit(self):
        grid = enumerate_patches((8, 8, 3), WindowConfig(patch_side=8, step=8, rank=2))
        assert grid.origins == [(0, 0)]
        np.testing.assert_array_equal(grid.coverage.data, 1.0)

    def test_exact_tiling(self):
        grid = enumerate_patches((4, 4, 2), WindowConfig(patch_side=2, step=2, rank=1))
        assert grid.origins == [(0, 0), (0, 2), (2, 0), (2, 2)]
        np.testing.assert_array_equal(grid.coverage.data, 1.0)

    def test_unit_step_counts(self):
        grid = enumerate_patches((4, 4, 2), WindowConfig(patch_side=2, step=1, rank=1))
        assert len(grid.origins) == 9
        assert grid.coverage.data[0, 0, 0] == 1.0
        assert grid.coverage.data[1, 1, 0] == 4.0

    def test_clamped_final_origin(self):
        # 11 rows, window 4, step 3: strided origins 0,3,6 plus clamped 7.
        grid = enumerate_patches((11, 11, 2), WindowConfig(patch_side=4, step=3, rank=1))
        rows = sorted({r for r, _ in grid.origins})
        assert rows == [0, 3, 6, 7]
        assert np.all(grid.coverage.data >= 1.0)

    def test_origins_sorted_and_unique(self):
        grid = enumerate_patches((13, 9, 2), WindowConfig(patch_side=4, step=3, rank=1))
        assert grid.origins == sorted(set(grid.origins))

    def test_coverage_matches_brute_force(self):
        dims = (13, 9, 2)
        grid = enumerate_patches(dims, WindowConfig(patch_side=4, step=3, rank=1))
        oracle = brute_force_coverage(dims, grid.origins, 4)
        np.testing.assert_array_equal(grid.coverage.data, oracle)

    def test_coverage_is_one_plane_repeated_over_bands(self):
        # The bands share one M x N plane: band stride 0, read-only, no
        # P-fold copy, and still the brute-force counts everywhere.
        dims = (13, 9, 5)
        grid = enumerate_patches(dims, WindowConfig(patch_side=4, step=3, rank=1))
        data = grid.coverage.data
        assert data.shape == dims
        assert data.strides[2] == 0
        assert not data.flags.writeable
        np.testing.assert_array_equal(data, brute_force_coverage(dims, grid.origins, 4))

    def test_window_larger_than_image_rejected(self):
        with pytest.raises(ValueError, match="patch_side"):
            enumerate_patches((6, 6, 2), WindowConfig(patch_side=8, step=4, rank=1))


class TestPatchMatrixReshaping:
    def test_single_pixel_patch_is_spectrum_row(self):
        spectrum = np.arange(5, dtype=np.float64)
        patch = spectrum.reshape(1, 1, 5)
        mat = patch_to_matrix(patch)
        assert mat.shape == (1, 5)
        np.testing.assert_array_equal(mat[0], spectrum)

    def test_2x2_single_band_column_order(self):
        # Row-major spatial order: (0,0), (0,1), (1,0), (1,1).
        a, b, c, d = 1.0, 2.0, 3.0, 4.0
        patch = np.array([[[a], [b]], [[c], [d]]])
        mat = patch_to_matrix(patch)
        assert mat.shape == (4, 1)
        np.testing.assert_array_equal(mat[:, 0], [a, b, c, d])

    def test_entry_addressing_against_loop_oracle(self):
        rng = np.random.default_rng(7)
        patch = rng.normal(size=(3, 3, 2))
        mat = patch_to_matrix(patch)
        for dr in range(3):
            for dc in range(3):
                for band in range(2):
                    assert mat[dr * 3 + dc, band] == patch[dr, dc, band]

    def test_stack_reshapes_each_patch_as_a_view(self):
        # A (..., J, J, P) stack becomes a (..., J*J, P) stack, patch by
        # patch; the pipeline fits through the view, so writes must land.
        stack = np.random.default_rng(3).normal(size=(2, 4, 3, 3, 2))
        mats = patch_to_matrix(stack)
        assert mats.shape == (2, 4, 9, 2)
        for i in range(2):
            for k in range(4):
                np.testing.assert_array_equal(mats[i, k], patch_to_matrix(stack[i, k]))
        mats[1, 2, 4, 1] = 99.0
        assert stack[1, 2, 1, 1, 1] == 99.0
        with pytest.raises(ValueError):
            patch_to_matrix(np.zeros((3, 3)))


class TestAggregateMean:
    def test_single_full_image_patch_identity(self):
        rng = np.random.default_rng(9)
        arr = rng.normal(size=(4, 4, 2))
        grid = enumerate_patches((4, 4, 2), WindowConfig(patch_side=4, step=4, rank=1))
        out = aggregate_mean([((0, 0), arr)], grid)
        np.testing.assert_array_equal(out.data, arr)

    def test_overlap_region_averages_both_patches(self):
        grid = enumerate_patches((2, 3, 1), WindowConfig(patch_side=2, step=1, rank=1))
        a = np.full((2, 2, 1), 1.0)
        b = np.full((2, 2, 1), 3.0)
        out = aggregate_mean([((0, 0), a), ((0, 1), b)], grid)
        # Middle column is covered by both patches.
        np.testing.assert_array_equal(out.data[:, 1, 0], 2.0)
        np.testing.assert_array_equal(out.data[:, 0, 0], 1.0)
        np.testing.assert_array_equal(out.data[:, 2, 0], 3.0)

    def test_constant_patches_give_constant_output(self):
        grid = enumerate_patches((4, 4, 2), WindowConfig(patch_side=2, step=1, rank=1))
        patches = [(origin, np.full((2, 2, 2), 5.0)) for origin in grid.origins]
        out = aggregate_mean(patches, grid)
        np.testing.assert_array_equal(out.data, 5.0)

    def test_matches_padded_sum_oracle(self):
        rng = np.random.default_rng(10)
        dims = (5, 5, 2)
        grid = enumerate_patches(dims, WindowConfig(patch_side=3, step=2, rank=1))
        patches = [(o, rng.normal(size=(3, 3, 2))) for o in grid.origins]
        # Oracle: explicit zero-padded sum divided by brute-force coverage.
        total = np.zeros(dims)
        for (r, c), patch in patches:
            padded = np.zeros(dims)
            padded[r:r + 3, c:c + 3, :] = patch
            total += padded
        oracle = total / brute_force_coverage(dims, grid.origins, 3)
        out = aggregate_mean(patches, grid)
        np.testing.assert_allclose(out.data, oracle, rtol=0, atol=1e-15)

    def test_bit_exact_with_scatter_add_patch_in_origin_order(self):
        # Step 2 < window 5, so each voxel's covering column windows fall in
        # different groups of every-third origin: a grouped scatter would
        # sum them out of origin order and round differently.
        rng = np.random.default_rng(12)
        dims = (15, 15, 4)
        grid = enumerate_patches(dims, WindowConfig(patch_side=5, step=2, rank=1))
        patches = [(o, rng.normal(size=(5, 5, 4))) for o in grid.origins]
        acc = HsiCube.zeros(dims)
        for (r, c), patch in patches:
            scatter_add_patch(acc, VoxelIndex(r, c, 0), patch)
        oracle = hadamard_divide(acc, grid.coverage)
        # The order the patches are given in does not matter.
        out = aggregate_mean(reversed(patches), grid)
        np.testing.assert_array_equal(out.data, oracle.data)

    def test_ground_truth_patches_reproduce_cube(self):
        rng = np.random.default_rng(11)
        cube = HsiCube(rng.normal(size=(6, 6, 3)))
        grid = enumerate_patches((6, 6, 3), WindowConfig(patch_side=3, step=2, rank=1))
        patches = [
            (o, extract_patch(cube, VoxelIndex(o[0], o[1], 0), (3, 3, 3)))
            for o in grid.origins
        ]
        out = aggregate_mean(patches, grid)
        np.testing.assert_allclose(out.data, cube.data, rtol=0, atol=1e-15)

    def test_no_overlap_is_pure_retiling(self):
        rng = np.random.default_rng(12)
        grid = enumerate_patches((4, 4, 1), WindowConfig(patch_side=2, step=2, rank=1))
        patches = [(o, rng.normal(size=(2, 2, 1))) for o in grid.origins]
        out = aggregate_mean(patches, grid)
        for (r, c), patch in patches:
            np.testing.assert_array_equal(out.data[r:r + 2, c:c + 2, :], patch)

    def test_missing_patch_rejected(self):
        grid = enumerate_patches((4, 4, 1), WindowConfig(patch_side=2, step=2, rank=1))
        patches = [(o, np.ones((2, 2, 1))) for o in grid.origins[:-1]]
        with pytest.raises(ValueError, match="origin"):
            aggregate_mean(patches, grid)

    def test_misshapen_patch_rejected(self):
        grid = enumerate_patches((4, 4, 1), WindowConfig(patch_side=2, step=2, rank=1))
        patches = [(o, np.ones((2, 2, 1))) for o in grid.origins]
        patches[1] = (patches[1][0], np.ones((1, 2, 1)))
        with pytest.raises(ValueError, match="shape"):
            aggregate_mean(patches, grid)

    def test_unknown_patch_origin_rejected(self):
        grid = enumerate_patches((4, 4, 1), WindowConfig(patch_side=2, step=2, rank=1))
        patches = [(o, np.ones((2, 2, 1))) for o in grid.origins]
        patches[0] = ((1, 1), patches[0][1])
        with pytest.raises(ValueError, match="missing"):
            aggregate_mean(patches, grid)

    def test_extra_patch_origin_rejected(self):
        # Every grid origin is present, so only the extra one is at fault.
        grid = enumerate_patches((4, 4, 1), WindowConfig(patch_side=2, step=2, rank=1))
        patches = [(o, np.ones((2, 2, 1))) for o in grid.origins] + [((1, 1), np.ones((2, 2, 1)))]
        with pytest.raises(ValueError, match="not in grid"):
            aggregate_mean(patches, grid)
