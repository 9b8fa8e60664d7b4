"""Cube container, element-wise division, and patch extract/scatter."""

import numpy as np
import pytest

from lrma_uq import (
    HsiCube,
    VoxelIndex,
    extract_patch,
    hadamard_divide,
    scatter_add_patch,
)


class TestHsiCube:
    def test_widens_float32_to_float64(self):
        arr = np.ones((2, 3, 4), dtype=np.float32)
        cube = HsiCube(arr)
        assert cube.data.dtype == np.float64
        assert cube.dims == (2, 3, 4)

    def test_rejects_non_3d(self):
        with pytest.raises(ValueError, match="3-D"):
            HsiCube(np.ones((4, 4)))

    def test_rejects_non_finite(self):
        arr = np.ones((2, 2, 2))
        arr[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            HsiCube(arr)
        arr[0, 0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            HsiCube(arr)

    def test_rejects_empty_axis(self):
        with pytest.raises(ValueError, match="positive"):
            HsiCube(np.ones((2, 0, 2)))

    def test_copies_by_default(self):
        arr = np.ones((2, 2, 2))
        cube = HsiCube(arr)
        arr[0, 0, 0] = 99.0
        assert cube.data[0, 0, 0] == 1.0

    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    def test_no_copy_still_widens(self, dtype, monkeypatch):
        # numpy 2 refuses copy=False for a cast and numpy 1.x refuses
        # copy=None, as the wrapper below does; the cube copies only then.
        real = np.array

        def numpy1_array(obj, *args, copy=True, **kwargs):
            if copy is None:
                raise ValueError("NoneType copy mode not allowed")
            return real(obj, *args, copy=copy, **kwargs)

        monkeypatch.setattr(np, "array", numpy1_array)
        arr = np.arange(8, dtype=dtype).reshape(2, 2, 2)
        cube = HsiCube(arr, copy=False)
        assert cube.data.dtype == np.float64
        np.testing.assert_array_equal(cube.data, arr)

    def test_no_copy_shares_a_float64_array(self):
        arr = np.ones((2, 2, 2))
        cube = HsiCube(arr, copy=False)
        assert np.shares_memory(cube.data, arr)

    def test_zeros_and_axis_properties(self):
        cube = HsiCube.zeros((3, 4, 5))
        assert (cube.rows, cube.cols, cube.bands) == (3, 4, 5)
        assert not cube.data.any()
        assert repr(cube) == "HsiCube(3x4x5)"


class TestHadamardDivide:
    def test_constant_cubes(self):
        num = HsiCube(np.full((2, 2, 2), 6.0))
        den = HsiCube(np.full((2, 2, 2), 2.0))
        np.testing.assert_array_equal(hadamard_divide(num, den).data, 3.0)

    def test_identical_cubes_give_ones(self):
        arr = np.random.default_rng(0).uniform(0.5, 2.0, (3, 3, 2))
        out = hadamard_divide(HsiCube(arr), HsiCube(arr))
        np.testing.assert_allclose(out.data, 1.0, rtol=0, atol=1e-15)

    def test_single_entry_scalar_oracle(self):
        num = HsiCube(np.ones((2, 2, 1)))
        den = HsiCube(np.ones((2, 2, 1)))
        num.data[1, 0, 0] = 0.9
        den.data[1, 0, 0] = 3.0
        out = hadamard_divide(num, den)
        assert out.data[1, 0, 0] == 0.9 / 3.0
        assert out.data[0, 0, 0] == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            hadamard_divide(HsiCube.zeros((2, 2, 2)), HsiCube(np.ones((2, 2, 3))))

    def test_zero_denominator_entry_rejected(self):
        den = np.ones((2, 2, 2))
        den[1, 1, 1] = 0.0
        with pytest.raises(ValueError, match="non-positive"):
            hadamard_divide(HsiCube(np.ones((2, 2, 2))), HsiCube(den))

    def test_negative_denominator_entry_rejected(self):
        den = np.ones((2, 2, 2))
        den[0, 1, 0] = -1.0
        with pytest.raises(ValueError, match="non-positive"):
            hadamard_divide(HsiCube(np.ones((2, 2, 2))), HsiCube(den))

    def test_in_place_quotient_is_bit_equal_to_the_fresh_one(self):
        rng = np.random.default_rng(1)
        num = HsiCube(rng.uniform(-3.0, 3.0, (5, 4, 3)))
        # A broadcast plane, as the pipeline's coverage counts are.
        plane = rng.integers(1, 10, (5, 4)).astype(np.float64)
        den = HsiCube(np.broadcast_to(plane[:, :, None], (5, 4, 3)), copy=False)
        fresh = hadamard_divide(num, den)
        out = hadamard_divide(num, den, out=num)
        assert out is num
        assert num.data.tobytes() == fresh.data.tobytes()

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_non_positive_denominator_raises_before_out_is_written(self, bad):
        num = HsiCube(np.full((2, 2, 2), 6.0))
        den = np.full((2, 2, 2), 2.0)
        den[1, 0, 1] = bad
        with pytest.raises(ValueError, match="non-positive"):
            hadamard_divide(num, HsiCube(den), out=num)
        np.testing.assert_array_equal(num.data, 6.0)

    def test_out_dimension_mismatch(self):
        with pytest.raises(ValueError, match="out dimension mismatch"):
            hadamard_divide(HsiCube(np.ones((2, 2, 2))), HsiCube(np.ones((2, 2, 2))),
                            out=HsiCube.zeros((2, 2, 3)))


class TestExtractPatch:
    def test_full_extent_returns_whole_cube(self):
        arr = np.random.default_rng(1).normal(size=(4, 5, 3))
        cube = HsiCube(arr)
        patch = extract_patch(cube, VoxelIndex(0, 0, 0), (4, 5, 3))
        np.testing.assert_array_equal(patch, arr)

    def test_bottom_right_block_index_oracle(self):
        arr = np.arange(4 * 4 * 2, dtype=np.float64).reshape(4, 4, 2)
        cube = HsiCube(arr)
        patch = extract_patch(cube, VoxelIndex(2, 2, 0), (2, 2, 2))
        np.testing.assert_array_equal(patch, arr[2:4, 2:4, 0:2])

    def test_out_of_bounds_origin(self):
        cube = HsiCube(np.ones((4, 4, 2)))
        with pytest.raises(ValueError, match="exceeds"):
            extract_patch(cube, VoxelIndex(3, 3, 0), (2, 2, 2))

    def test_negative_origin(self):
        cube = HsiCube(np.ones((4, 4, 2)))
        with pytest.raises(ValueError, match="non-negative"):
            extract_patch(cube, VoxelIndex(-1, 0, 0), (2, 2, 2))

    def test_partial_band_extent_rejected(self):
        cube = HsiCube(np.ones((4, 4, 3)))
        with pytest.raises(ValueError, match="full-band"):
            extract_patch(cube, VoxelIndex(0, 0, 0), (2, 2, 2))

    def test_returns_a_copy(self):
        cube = HsiCube(np.zeros((3, 3, 2)))
        patch = extract_patch(cube, VoxelIndex(0, 0, 0), (2, 2, 2))
        patch[:] = 7.0
        assert not cube.data.any()


class TestScatterAddPatch:
    def test_ones_patch_on_zero_accumulator(self):
        acc = HsiCube.zeros((4, 4, 2))
        scatter_add_patch(acc, VoxelIndex(0, 0, 0), np.ones((2, 2, 2)))
        assert acc.data[:2, :2, :].sum() == 8.0
        assert acc.data[2:, :, :].sum() == 0.0
        assert acc.data[:2, 2:, :].sum() == 0.0

    def test_two_overlapping_unit_patches(self):
        acc = HsiCube.zeros((3, 4, 1))
        scatter_add_patch(acc, VoxelIndex(0, 0, 0), np.ones((2, 2, 1)))
        scatter_add_patch(acc, VoxelIndex(0, 1, 0), np.ones((2, 2, 1)))
        np.testing.assert_array_equal(acc.data[:2, 1:2, 0], 2.0)
        np.testing.assert_array_equal(acc.data[:2, 0:1, 0], 1.0)
        np.testing.assert_array_equal(acc.data[:2, 2:3, 0], 1.0)

    def test_matches_explicit_zero_padding(self):
        rng = np.random.default_rng(2)
        patch = rng.normal(size=(2, 3, 3))
        origin = VoxelIndex(1, 2, 0)
        acc = HsiCube(rng.normal(size=(5, 5, 3)))
        # Oracle: pad the patch to full cube size explicitly, then add.
        padded = np.zeros((5, 5, 3))
        padded[1:3, 2:5, 0:3] = patch
        expected = acc.data + padded
        scatter_add_patch(acc, origin, patch)
        np.testing.assert_array_equal(acc.data, expected)

    @pytest.mark.parametrize("layout", ["c", "fortran", "strided"])
    def test_any_accumulator_layout(self, layout):
        # Every window lands in place whatever the accumulator's memory
        # layout, with the sums of a plain slice-add loop.
        rng = np.random.default_rng(4)
        dims, side = (14, 17, 3), 5
        origins = [(r, c) for r in (0, 3, 6, 9) for c in (0, 4, 8, 12)]
        patches = rng.normal(size=(len(origins), side, side, dims[2]))
        oracle = np.zeros(dims)
        for (r, c), patch in zip(origins, patches):
            oracle[r:r + side, c:c + side] += patch
        data = {
            "c": np.zeros(dims),
            "fortran": np.zeros(dims, order="F"),
            "strided": np.zeros(dims[:2] + (2 * dims[2],))[:, :, ::2],
        }[layout]
        acc = HsiCube(data, copy=False)
        assert acc.data is data
        for (r, c), patch in zip(origins, patches):
            scatter_add_patch(acc, VoxelIndex(r, c, 0), patch)
        np.testing.assert_array_equal(acc.data, oracle)

    def test_out_of_bounds_rejected(self):
        acc = HsiCube.zeros((3, 3, 1))
        with pytest.raises(ValueError, match="exceeds"):
            scatter_add_patch(acc, VoxelIndex(2, 0, 0), np.ones((2, 2, 1)))

    def test_roundtrip_with_extract(self):
        rng = np.random.default_rng(3)
        patch = rng.normal(size=(2, 2, 4))
        acc = HsiCube.zeros((5, 5, 4))
        scatter_add_patch(acc, VoxelIndex(3, 1, 0), patch)
        out = extract_patch(acc, VoxelIndex(3, 1, 0), (2, 2, 4))
        np.testing.assert_array_equal(out, patch)

    def test_order_independent_accumulation(self):
        rng = np.random.default_rng(4)
        patches = [
            (VoxelIndex(r, c, 0), rng.normal(size=(2, 2, 2)))
            for r in range(3)
            for c in range(3)
        ]
        acc_fwd = HsiCube.zeros((4, 4, 2))
        for origin, patch in patches:
            scatter_add_patch(acc_fwd, origin, patch)
        acc_rev = HsiCube.zeros((4, 4, 2))
        for origin, patch in reversed(patches):
            scatter_add_patch(acc_rev, origin, patch)
        # Bit-identical only when the per-element addition order matches, so
        # compare to high precision instead.
        np.testing.assert_allclose(acc_fwd.data, acc_rev.data, rtol=0, atol=1e-15)
