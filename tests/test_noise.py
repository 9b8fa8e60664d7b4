"""Synthetic cube generation and the Gaussian / impulse corruption models."""

import numpy as np
import pytest

from lrma_uq import (
    HsiCube,
    NoiseSpec,
    WindowConfig,
    add_gaussian,
    add_impulse,
    apply_noise,
    enumerate_patches,
    extract_patch,
    patch_to_matrix,
    synth_lowrank_cube,
    VoxelIndex,
    noise,
)


class TestNoiseSpec:
    def test_valid_defaults(self):
        spec = NoiseSpec(0.05)
        assert spec.impulse_ratio == 0.0
        assert spec.seed == 0

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma0"):
            NoiseSpec(-0.1)

    @pytest.mark.parametrize("sigma0", [float("nan"), float("inf")])
    def test_non_finite_sigma_rejected(self, sigma0):
        with pytest.raises(ValueError, match="sigma0 must be finite"):
            NoiseSpec(sigma0)

    def test_ratio_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="impulse_ratio"):
            NoiseSpec(0.1, impulse_ratio=1.5)


class TestSynthLowrankCube:
    def test_every_window_has_bounded_rank(self):
        # Oracle: singular values of each permuted window beyond the target
        # rank must vanish relative to the leading one.
        cube = synth_lowrank_cube((12, 10, 6), 3, seed=5)
        grid = enumerate_patches((12, 10, 6), WindowConfig(patch_side=4, step=3, rank=3))
        for origin in grid.origins:
            patch = extract_patch(cube, VoxelIndex(origin[0], origin[1], 0), (4, 4, 6))
            s = np.linalg.svd(patch_to_matrix(patch), compute_uv=False)
            assert s[3] <= 1e-10 * s[0]

    def test_values_inside_unit_interval(self):
        cube = synth_lowrank_cube((15, 15, 8), 4, seed=6)
        assert cube.data.min() >= 0.0
        assert cube.data.max() <= 1.0

    def test_deterministic_per_seed(self):
        a = synth_lowrank_cube((8, 8, 5), 3, seed=7)
        b = synth_lowrank_cube((8, 8, 5), 3, seed=7)
        np.testing.assert_array_equal(a.data, b.data)

    def test_different_seeds_differ(self):
        a = synth_lowrank_cube((8, 8, 5), 3, seed=7)
        b = synth_lowrank_cube((8, 8, 5), 3, seed=8)
        assert (a.data != b.data).any()

    def test_rank_one_is_constant(self):
        cube = synth_lowrank_cube((6, 6, 4), 1, seed=9)
        np.testing.assert_array_equal(cube.data, 0.5)

    def test_rank_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="true_rank"):
            synth_lowrank_cube((4, 4, 3), 4, seed=0)
        with pytest.raises(ValueError, match="true_rank"):
            synth_lowrank_cube((4, 4, 3), 0, seed=0)

    def test_non_positive_dims_rejected(self):
        with pytest.raises(ValueError, match=r"^cube dims must all be positive, got \(4, 0, 3\)$"):
            synth_lowrank_cube((4, 0, 3), 1, seed=0)


class TestAddGaussian:
    def test_zero_sigma_is_identity_copy(self):
        cube = synth_lowrank_cube((6, 6, 4), 2, seed=10)
        out = add_gaussian(cube, 0.0, seed=1)
        np.testing.assert_array_equal(out.data, cube.data)
        assert out is not cube

    def test_source_not_mutated(self):
        cube = synth_lowrank_cube((6, 6, 4), 2, seed=11)
        before = cube.data.copy()
        add_gaussian(cube, 0.2, seed=1)
        np.testing.assert_array_equal(cube.data, before)

    def test_moment_statistics(self):
        # Law-of-large-numbers oracle on 64000 voxels: the added noise has
        # mean ~0 and std ~sigma0, within 4 standard errors.
        cube = HsiCube(np.full((40, 40, 40), 0.5))
        sigma0 = 0.05
        delta = add_gaussian(cube, sigma0, seed=2).data - 0.5
        n = delta.size
        assert abs(delta.mean()) <= 4 * sigma0 / np.sqrt(n)
        assert abs(delta.std() - sigma0) <= 4 * sigma0 / np.sqrt(2 * n)

    def test_no_clipping_outside_unit_interval(self):
        cube = HsiCube(np.full((10, 10, 10), 0.999))
        out = add_gaussian(cube, 0.1, seed=3)
        assert out.data.max() > 1.0

    def test_deterministic_per_seed(self):
        cube = synth_lowrank_cube((6, 6, 4), 2, seed=12)
        a = add_gaussian(cube, 0.1, seed=4)
        b = add_gaussian(cube, 0.1, seed=4)
        np.testing.assert_array_equal(a.data, b.data)
        c = add_gaussian(cube, 0.1, seed=5)
        assert (a.data != c.data).any()

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma0"):
            add_gaussian(HsiCube.zeros((2, 2, 2)), -0.1, seed=0)

    @pytest.mark.parametrize("sigma0", [float("nan"), float("inf")])
    def test_non_finite_sigma_rejected_before_drawing(self, sigma0, monkeypatch):
        # The check and message are NoiseSpec's, made before any draw.
        monkeypatch.setattr(noise, "_generator", lambda *a: pytest.fail("noise drawn"))
        with pytest.raises(ValueError, match=f"^sigma0 must be finite and >= 0, got {sigma0}$"):
            add_gaussian(HsiCube.zeros((2, 2, 2)), sigma0, seed=0)


class TestAddImpulse:
    def test_zero_ratio_is_identity_copy(self):
        cube = synth_lowrank_cube((6, 6, 4), 2, seed=13)
        out = add_impulse(cube, 0.0, seed=1)
        np.testing.assert_array_equal(out.data, cube.data)

    def test_hit_values_are_exact_extremes(self):
        cube = HsiCube(np.full((20, 20, 10), 0.5))
        out = add_impulse(cube, 0.2, seed=2)
        hit = out.data != 0.5
        assert hit.any()
        assert np.isin(out.data[hit], (0.0, 1.0)).all()

    def test_untouched_voxels_keep_exact_values(self):
        rng = np.random.default_rng(43)
        cube = HsiCube(rng.uniform(0.1, 0.9, (15, 15, 6)))
        out = add_impulse(cube, 0.1, seed=3)
        unchanged = ~np.isin(out.data, (0.0, 1.0))
        np.testing.assert_array_equal(out.data[unchanged], cube.data[unchanged])

    def test_hit_fraction_matches_binomial_oracle(self):
        cube = HsiCube(np.full((40, 40, 25), 0.5))
        ratio = 0.1
        out = add_impulse(cube, ratio, seed=4)
        n = cube.data.size
        frac = np.mean(out.data != 0.5)
        # 0/1 draws can coincide with pre-hit values only if the cube held
        # exact extremes, which 0.5 rules out; binomial 4-sigma bound.
        assert abs(frac - ratio) <= 4 * np.sqrt(ratio * (1 - ratio) / n)

    def test_salt_pepper_split_is_even(self):
        cube = HsiCube(np.full((40, 40, 25), 0.5))
        out = add_impulse(cube, 0.2, seed=5)
        ones = np.count_nonzero(out.data == 1.0)
        zeros = np.count_nonzero(out.data == 0.0)
        total = ones + zeros
        assert abs(ones / total - 0.5) <= 4 * np.sqrt(0.25 / total)

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ValueError, match="ratio"):
            add_impulse(HsiCube.zeros((2, 2, 2)), -0.5, seed=0)


class TestApplyNoise:
    def test_gaussian_only_matches_add_gaussian(self):
        cube = synth_lowrank_cube((6, 6, 4), 2, seed=14)
        spec = NoiseSpec(0.07, seed=9)
        np.testing.assert_array_equal(
            apply_noise(cube, spec).data, add_gaussian(cube, 0.07, seed=9).data
        )

    def test_impulse_applied_after_gaussian(self):
        # Hit voxels must be exact 0/1 even though Gaussian noise was added
        # first; that ordering is what makes impulses exact extremes.
        cube = synth_lowrank_cube((10, 10, 6), 2, seed=15)
        spec = NoiseSpec(0.05, impulse_ratio=0.2, seed=10)
        out = apply_noise(cube, spec)
        assert ((out.data == 0.0) | (out.data == 1.0)).any()

    def test_seed_override_changes_output(self):
        cube = synth_lowrank_cube((6, 6, 4), 2, seed=16)
        spec = NoiseSpec(0.05, seed=0)
        a = apply_noise(cube, spec)
        b = apply_noise(cube, spec, seed=1)
        c = apply_noise(cube, spec, seed=1)
        assert (a.data != b.data).any()
        np.testing.assert_array_equal(b.data, c.data)

    def test_gaussian_and_impulse_streams_are_independent(self):
        # Same seed, different consumers: the Gaussian field and the impulse
        # mask must not be correlated copies of each other.
        cube = HsiCube(np.full((30, 30, 10), 0.5))
        g = add_gaussian(cube, 1.0, seed=11).data - 0.5
        hit = (add_impulse(cube, 0.5, seed=11).data != 0.5).astype(np.float64)
        corr = np.corrcoef(g.ravel(), hit.ravel())[0, 1]
        assert abs(corr) < 0.05
