"""Rank-constrained fitting, the alternating low-rank + sparse solver,
orthogonal factor alignment, and factor-error covariance sampling."""

import logging
import warnings

import numpy as np
import pytest

from lrma_uq import (
    LowRankFactors,
    godec,
    synth_lowrank_cube,
    truncated_svd,
    truncated_svd_batch,
)
from lrma_uq import lowrank
from lrma_uq.lowrank import _largest_index
from oracles import balanced, factor_error_samples, procrustes_rectify

SQRT5 = np.sqrt(5.0)


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


class TestTruncatedSvd:
    def test_diagonal_matrix(self):
        f = truncated_svd(np.diag([3.0, 2.0, 1.0]), 2)
        np.testing.assert_allclose(f.s, [3.0, 2.0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            f.matrix(), np.diag([3.0, 2.0, 0.0]), rtol=0, atol=1e-12
        )

    def test_hand_computed_rank1_factorization(self):
        # A = (1,2)^T (1,2) has the single singular value 5 with singular
        # vectors (1,2)/sqrt(5) on both sides; worked out by hand.
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        f = truncated_svd(a, 1)
        np.testing.assert_allclose(f.s, [5.0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(f.u[:, 0], [1 / SQRT5, 2 / SQRT5], atol=1e-12)
        np.testing.assert_allclose(f.v[:, 0], [1 / SQRT5, 2 / SQRT5], atol=1e-12)
        np.testing.assert_allclose(f.matrix(), a, rtol=0, atol=1e-12)

    def test_matches_full_svd_truncation_oracle(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((30, 20))
        f = truncated_svd(a, 5)
        u, s, vt = np.linalg.svd(a)
        oracle = u[:, :5] @ np.diag(s[:5]) @ vt[:5]
        assert np.linalg.norm(f.matrix() - oracle) <= 1e-10

    def test_eckart_young_beats_random_factorizations(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            a = rng.standard_normal((12, 8))
            best = np.linalg.norm(a - truncated_svd(a, 3).matrix())
            x = rng.standard_normal((12, 3))
            y = rng.standard_normal((8, 3))
            assert best <= np.linalg.norm(a - x @ y.T) + 1e-12

    def test_orthonormal_columns_and_descending_sigma(self):
        rng = np.random.default_rng(15)
        f = truncated_svd(rng.standard_normal((10, 7)), 4)
        np.testing.assert_allclose(f.u.T @ f.u, np.eye(4), rtol=0, atol=1e-10)
        np.testing.assert_allclose(f.v.T @ f.v, np.eye(4), rtol=0, atol=1e-10)
        assert np.all(np.diff(f.s) <= 0)
        assert np.all(f.s >= 0)

    def test_balanced_split_carries_sigma(self):
        rng = np.random.default_rng(16)
        f = truncated_svd(rng.standard_normal((9, 6)), 3)
        x, y = balanced(f)
        np.testing.assert_allclose(x.T @ x, np.diag(f.s), rtol=0, atol=1e-10)
        np.testing.assert_allclose(y.T @ y, np.diag(f.s), rtol=0, atol=1e-10)
        np.testing.assert_allclose(x @ y.T, f.matrix(), rtol=0, atol=1e-12)

    def test_leverage_mass_sums_to_rank(self):
        rng = np.random.default_rng(17)
        f = truncated_svd(rng.standard_normal((11, 9)), 4)
        assert np.sum(f.u**2) == pytest.approx(4.0, abs=1e-10)
        assert np.sum(f.v**2) == pytest.approx(4.0, abs=1e-10)

    def test_sign_anchor_positive_and_deterministic(self):
        rng = np.random.default_rng(18)
        a = rng.standard_normal((8, 6))
        f1 = truncated_svd(a, 3)
        f2 = truncated_svd(a.copy(), 3)
        for j in range(3):
            anchor = np.argmax(np.abs(f1.u[:, j]))
            assert f1.u[anchor, j] > 0
        np.testing.assert_array_equal(f1.u, f2.u)
        np.testing.assert_array_equal(f1.v, f2.v)

    @pytest.mark.parametrize("rank", [0, 7])
    def test_rank_out_of_range(self, rank):
        with pytest.raises(ValueError, match="rank"):
            truncated_svd(np.ones((8, 6)), rank)

    def test_non_finite_input_rejected(self):
        a = np.ones((4, 4))
        a[2, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            truncated_svd(a, 2)

    @pytest.mark.parametrize("shape", [(6, 4), (4, 6)], ids=["tall", "wide"])
    def test_huge_finite_input_is_fitted(self, shape):
        # The Gram of a 1e200-scaled matrix overflows; the matrix is fitted
        # scaled by a power of two, so its u and v are the unscaled ones to
        # rounding and its s carries the factor, with no overflow warning.
        a = np.random.default_rng(26).standard_normal(shape)
        small = truncated_svd(a, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = truncated_svd(a * 1e200, 2)
        np.testing.assert_allclose(big.u, small.u, rtol=0, atol=1e-13)
        np.testing.assert_allclose(big.v, small.v, rtol=0, atol=1e-13)
        np.testing.assert_allclose(big.s / 1e200, small.s, rtol=1e-13)

    def test_huge_matrix_in_a_stack_leaves_the_others_unscaled(self):
        # Only the overflowing matrix is scaled; by a power of two it is
        # exact, and its neighbours keep their bytes.
        mats = np.random.default_rng(27).standard_normal((3, 6, 4))
        u0, s0, v0 = truncated_svd_batch(mats, 2)
        mats[1] *= 2.0 ** 600
        u, s, v = truncated_svd_batch(mats, 2)
        np.testing.assert_array_equal(u, u0)
        np.testing.assert_array_equal(v, v0)
        np.testing.assert_array_equal(s, s0 * [[1.0], [2.0 ** 600], [1.0]])


@pytest.mark.parametrize("call, name", [
    (lambda: truncated_svd(np.ones((8, 6)), 1.5), "rank"),
    (lambda: godec(np.ones((8, 6)), 1, sparse_count=2.5), "sparse_count"),
    (lambda: godec(np.ones((8, 6)), 1, max_iter=2.5), "max_iter"),
    (lambda: synth_lowrank_cube((4, 4, 3), 2.5, 0), "true_rank"),
], ids=["truncated_svd", "godec-sparse_count", "godec-max_iter", "synth_lowrank_cube"])
def test_fractional_count_is_a_named_value_error(call, name):
    # Each once failed inside numpy with a TypeError naming no parameter.
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= "):
        call()


def counting_svd(monkeypatch) -> list:
    """Route numpy.linalg.svd through a wrapper; returns the call log."""
    calls = []
    real = np.linalg.svd

    def svd(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    return calls


def spying_gram_fit(monkeypatch) -> list:
    """Route lowrank._gram_fit through a wrapper; returns its input shapes."""
    calls = []
    real = lowrank._gram_fit

    def gram_fit(a, rank):
        calls.append(a.shape)
        return real(a, rank)

    monkeypatch.setattr(lowrank, "_gram_fit", gram_fit)
    return calls


class TestTruncatedSvdBatch:
    @staticmethod
    def check_against_svd_oracle(stack, rank):
        oracles = []
        for mat in stack:
            u, s, vt = np.linalg.svd(mat, full_matrices=False)
            oracles.append(((u[:, :rank] * s[:rank]) @ vt[:rank], s[:rank]))
        u, s, v = truncated_svd_batch(stack, rank)
        assert u.shape == stack.shape[:2] + (rank,)
        assert v.shape == (stack.shape[0], stack.shape[2], rank)
        eye = np.eye(rank)
        for i, (approx, sigma) in enumerate(oracles):
            assert np.linalg.norm((u[i] * s[i]) @ v[i].T - approx) <= 1e-10
            np.testing.assert_allclose(s[i], sigma, rtol=0, atol=1e-10)
            np.testing.assert_allclose(u[i].T @ u[i], eye, rtol=0, atol=1e-10)
            np.testing.assert_allclose(v[i].T @ v[i], eye, rtol=0, atol=1e-10)
            anchor = np.argmax(np.abs(u[i]), axis=0)
            assert np.all(u[i][anchor, np.arange(rank)] > 0)
        return u, s, v

    def test_tall_stack_matches_per_matrix_svd(self, monkeypatch):
        rng = np.random.default_rng(30)
        stack = rng.standard_normal((12, 40, 9))
        svd_calls = counting_svd(monkeypatch)
        self.check_against_svd_oracle(stack, 4)
        assert len(svd_calls) == 12  # the oracle's calls; the kernel made none

    def test_wide_stack_matches_per_matrix_svd(self):
        rng = np.random.default_rng(31)
        self.check_against_svd_oracle(rng.standard_normal((7, 6, 15)), 3)

    def test_rank_deficient_and_zero_windows_take_the_svd_fallback(self, monkeypatch):
        rng = np.random.default_rng(32)
        stack = rng.standard_normal((5, 30, 8))
        stack[1] = rng.standard_normal((30, 2)) @ rng.standard_normal((2, 8))
        stack[3] = 0.0
        svd_calls = counting_svd(monkeypatch)
        u, s, _ = truncated_svd_batch(stack, 4)
        assert svd_calls == [(30, 8), (30, 8)]
        assert s[1, 2] < 1e-12 and not s[3].any()
        svd_calls.clear()
        self.check_against_svd_oracle(stack, 4)

    def test_one_kernel_call_per_stack(self, monkeypatch):
        rng = np.random.default_rng(34)
        calls = spying_gram_fit(monkeypatch)
        truncated_svd_batch(rng.standard_normal((12, 40, 9)), 4)
        truncated_svd(rng.standard_normal((6, 15)), 3)
        assert calls == [(12, 40, 9), (1, 6, 15)]

    @pytest.mark.parametrize("shape, rank", [((40, 9), 4), ((6, 15), 3), ((12, 3), 3)],
                             ids=["tall", "wide", "rank-deficient"])
    def test_kernel_on_one_matrix_equals_a_stack_of_one(self, monkeypatch, shape, rank):
        # godec's Ritz fit runs the kernel on a 2-D matrix; the SVD oracle
        # above pins it on stacks. A rank-deficient matrix is refit by one
        # full SVD inside the kernel.
        mat = np.random.default_rng(35).standard_normal(shape)
        if shape == (12, 3):
            mat[:, 2] = mat[:, 0] + mat[:, 1]
        svd_calls = counting_svd(monkeypatch)
        u, s, v = lowrank._gram_fit(mat, rank)
        assert svd_calls == ([(12, 3)] if shape == (12, 3) else [])
        for got, stacked in zip((u, s, v), truncated_svd_batch(mat[None], rank)):
            np.testing.assert_array_equal(got, stacked[0])

    def test_stack_of_one_is_truncated_svd(self):
        rng = np.random.default_rng(33)
        mats = rng.standard_normal((3, 11, 7))
        u, s, v = truncated_svd_batch(mats, 3)
        for i, mat in enumerate(mats):
            f = truncated_svd(mat, 3)
            np.testing.assert_array_equal(f.u, u[i])
            np.testing.assert_array_equal(f.s, s[i])
            np.testing.assert_array_equal(f.v, v[i])

    def test_invalid_input(self):
        with pytest.raises(ValueError, match="stack"):
            truncated_svd_batch(np.ones((4, 4)), 1)
        with pytest.raises(ValueError, match="^expected a 2-D matrix, got ndim=3$"):
            truncated_svd(np.ones((2, 4, 3)), 1)
        with pytest.raises(ValueError, match="rank"):
            truncated_svd_batch(np.ones((2, 4, 3)), 4)
        bad = np.ones((2, 4, 3))
        bad[1, 0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            truncated_svd_batch(bad, 1)


def _keep_largest(mat, count):
    """Zero all but the `count` largest-magnitude entries, as `godec`'s
    sparse step keeps them through `_largest_index`."""
    keep = _largest_index(mat, count)
    out = np.zeros_like(mat)
    out.ravel()[keep] = mat.ravel()[keep]
    return out


class TestKeepLargest:
    def test_ties_match_stable_argsort_oracle(self):
        # Nonzero integers of magnitude 1 to 4: most magnitudes tie, so the
        # tie-break decides the kept set, and no kept entry reads as zero.
        rng = np.random.default_rng(34)
        for _ in range(200):
            shape = tuple(rng.integers(1, 9, size=2))
            mat = rng.integers(1, 5, size=shape) * rng.choice([-1.0, 1.0], size=shape)
            count = int(rng.integers(0, mat.size + 2))
            order = np.argsort(-np.abs(mat).ravel(), kind="stable")[:count]
            oracle = np.zeros_like(mat)
            oracle.ravel()[order] = mat.ravel()[order]
            np.testing.assert_array_equal(_keep_largest(mat, count), oracle)


def _stable_top(mat, count):
    """The flat indices a stable descending sort of |mat| keeps, sorted."""
    return np.sort(np.argsort(-np.abs(mat).ravel(), kind="stable")[:count])


class TestLargestIndex:
    @pytest.mark.parametrize("count", [1, 3, 4, 5, 7, 8])
    def test_ties_straddling_the_cut_keep_the_lowest_indices(self, count):
        # Magnitude 2 sits at flat indices 1, 4, 6, 9 and 10, between three
        # larger and four smaller entries, so every count from 4 to 7 cuts
        # through the ties (and 1 and 3 do not).
        mat = np.array([[1.0, -2.0, 5.0, 1.0],
                        [2.0, 3.0, -2.0, 0.5],
                        [4.0, 2.0, -2.0, 0.25]])
        got = np.sort(_largest_index(mat, count))
        np.testing.assert_array_equal(got, _stable_top(mat, count))

    @pytest.mark.parametrize("count", [0, 1, 11, 23, 24, 25])
    def test_all_equal_magnitudes(self, count):
        mat = np.full((4, 6), 0.5)
        mat[::2] *= -1.0
        got = np.sort(_largest_index(mat, count))
        np.testing.assert_array_equal(got, _stable_top(mat, count))
        assert got.dtype == np.intp

    def test_all_but_one_entry(self):
        rng = np.random.default_rng(35)
        for _ in range(50):
            shape = tuple(rng.integers(1, 9, size=2))
            mat = rng.integers(1, 4, size=shape) * rng.choice([-1.0, 1.0], size=shape)
            got = np.sort(_largest_index(mat, mat.size - 1))
            np.testing.assert_array_equal(got, _stable_top(mat, mat.size - 1))


class TestGodec:
    def test_exact_rank_input_is_fixed_point(self):
        rng = np.random.default_rng(19)
        a = rng.standard_normal((15, 10))
        exact = truncated_svd(a, 3).matrix()
        res = godec(exact, 3, sparse_count=0)
        rel = np.linalg.norm(res.low_rank - exact) / np.linalg.norm(exact)
        assert rel <= 1e-8

    def test_spike_isolated_into_sparse_part(self):
        # Spike well below the base's spectral norm (~20): the alternation
        # reaches the global optimum, recovering both parts almost exactly.
        rng = np.random.default_rng(20)
        base = np.outer(rng.uniform(1, 2, 12), rng.uniform(1, 2, 9))
        spiked = base.copy()
        spiked[4, 3] += 10.0
        res = godec(spiked, 1, sparse_count=1)
        assert np.count_nonzero(res.sparse) == 1
        assert res.sparse[4, 3] == pytest.approx(10.0, abs=1e-3)
        rel = np.linalg.norm(res.low_rank - base) / np.linalg.norm(base)
        assert rel <= 1e-4

    def test_dominant_spike_hijacks_the_low_rank_step(self):
        # Documented limitation: a sparse part whose magnitude exceeds the
        # base's spectral norm is absorbed by the very first rank-1 fit
        # (the alternation starts from a zero sparse part), leaving a local
        # minimum in which the spike cell stays in the low-rank component.
        rng = np.random.default_rng(20)
        base = np.outer(rng.uniform(1, 2, 12), rng.uniform(1, 2, 9))
        spiked = base.copy()
        spiked[4, 3] += 50.0
        res = godec(spiked, 1, sparse_count=1)
        assert res.sparse[4, 3] == 0.0
        assert abs(res.low_rank[4, 3] - spiked[4, 3]) < 5.0

    def test_zero_budget_equals_truncated_svd(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((20, 12))
        res = godec(a, 4, sparse_count=0)
        oracle = truncated_svd(a, 4)
        np.testing.assert_array_equal(res.low_rank, oracle.matrix())
        np.testing.assert_array_equal(res.factors.u, oracle.u)
        assert res.iterations == 1
        assert not res.sparse.any()

    def test_residual_monotone_on_random_instances(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            a = rng.standard_normal((14, 10))
            res = godec(a, 3, sparse_count=12, max_iter=40)
            hist = np.asarray(res.residual_history)
            assert np.all(np.diff(hist) <= 1e-12)

    def test_residual_monotone_on_a_scene_shaped_window(self):
        # A 20x20-pixel, 64-band window of a rank-7 scene with 5% impulses,
        # fitted at rank 7 with a 5% budget: the warm steps run many times.
        rng = np.random.default_rng(26)
        a = rng.uniform(0, 1, (400, 7)) @ rng.uniform(0, 1, (7, 64)) / 7
        a += 0.05 * rng.standard_normal(a.shape)
        hit = rng.random(a.shape) < 0.05
        a[hit] = rng.integers(0, 2, hit.sum())
        res = godec(a, 7, sparse_count=round(0.05 * a.size))
        assert res.iterations > 3
        rises = np.diff(res.residual_history)
        assert np.all(rises <= 1e-12 * np.linalg.norm(a))

    def test_stops_at_the_noise_scale_on_a_scene_shaped_window(self):
        # The window of the test above. Each iteration before the last
        # lowers the residual norm by more than the rule's fraction of its
        # standard error under Gaussian noise, res / sqrt(2 K L) (or the
        # _TOL floor); the last one does not. Stopping against the floor
        # alone took 14 iterations on this matrix, a fiftieth of the
        # standard error 11, and a fifth 9.
        rng = np.random.default_rng(26)
        a = rng.uniform(0, 1, (400, 7)) @ rng.uniform(0, 1, (7, 64)) / 7
        a += 0.05 * rng.standard_normal(a.shape)
        hit = rng.random(a.shape) < 0.05
        a[hit] = rng.integers(0, 2, hit.sum())
        res = godec(a, 7, sparse_count=round(0.05 * a.size))
        hist = np.asarray(res.residual_history)
        floor = lowrank._TOL * np.linalg.norm(a)
        bound = np.maximum(hist[1:] / (lowrank._NOISE_STEPS * np.sqrt(2 * a.size)), floor)
        drops = hist[:-1] - hist[1:]
        assert res.converged
        assert np.all(drops[:-1] > bound[:-1])
        assert drops[-1] <= bound[-1]
        assert res.iterations == hist.size < 11

    def test_transposed_input_matches_its_contiguous_copy(self):
        # The sparse part is kept as flat indices into the C-ordered
        # residual, so a Fortran-ordered input must not scramble it.
        rng = np.random.default_rng(28)
        a = rng.standard_normal((9, 14)).T
        res = godec(a, 2, sparse_count=9)
        oracle = godec(np.ascontiguousarray(a), 2, sparse_count=9)
        np.testing.assert_array_equal(res.sparse, oracle.sparse)
        np.testing.assert_array_equal(res.low_rank, oracle.low_rank)
        assert np.count_nonzero(res.sparse) == 9

    def test_rank_deficient_iterate_takes_the_kernel_refit(self, monkeypatch):
        # A rank-2 input fitted at rank 3 keeps every iterate at nearly rank
        # 2, so the final Ritz fit's 3x3 Gram fails the floor and the kernel
        # refits the 12x3 x q by its full SVD; truncated_svd runs only for
        # the first fit. A 1e-5 perturbation keeps the residual falling past
        # the second pass. (Spikes on a rank-2 input do not serve: the third
        # direction absorbs one and keeps it.)
        rng = np.random.default_rng(25)
        base = rng.standard_normal((12, 2)) @ rng.standard_normal((2, 9))
        noise = 1e-5 * np.random.default_rng(26).standard_normal(base.shape)
        a = base + noise
        calls = []
        real = lowrank.truncated_svd
        monkeypatch.setattr(lowrank, "truncated_svd",
                            lambda *args: calls.append(args[0]) or real(*args))
        svd_calls = counting_svd(monkeypatch)
        res = godec(a, 3, sparse_count=4)
        assert res.iterations >= 3
        assert len(calls) == 1 and calls[0] is a
        assert svd_calls == [(12, 9), (12, 3)]  # the first fit's own refit, then x q's
        f = res.factors
        assert np.all(np.isfinite(f.s))
        np.testing.assert_allclose(f.u.T @ f.u, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(f.v.T @ f.v, np.eye(3), atol=1e-12)
        assert np.linalg.norm(f.matrix() - res.low_rank) <= 1e-12 * np.linalg.norm(res.low_rank)
        assert np.linalg.norm(res.low_rank - base) <= np.linalg.norm(noise)

    def test_one_ritz_fit_runs_the_kernel_on_the_last_x_q(self, monkeypatch):
        # A scene-shaped window at rank 7 with a 5% budget: the first fit is
        # the truncated SVD of a stack of one; the loop's passes fit nothing,
        # and one Rayleigh-Ritz fit of the 400 x 7 matrix x q ends it.
        a = scene_windows(64, 1)[0]
        calls = spying_gram_fit(monkeypatch)
        res = godec(a, 7, sparse_count=round(0.05 * a.size))
        assert res.iterations > 3
        assert calls == [(1, 400, 64), (400, 7)]

    def test_warm_fit_anchors_signs_like_truncated_svd(self):
        rng = np.random.default_rng(27)
        a = rng.standard_normal((30, 8))
        res = godec(a, 3, sparse_count=10)
        assert res.iterations >= 2
        u = res.factors.u
        assert np.all(u[np.argmax(np.abs(u), axis=0), range(3)] > 0)

    def test_sparse_budget_respected(self):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((10, 10))
        res = godec(a, 2, sparse_count=7)
        assert np.count_nonzero(res.sparse) <= 7

    def test_nonconvergence_reported_not_raised(self):
        rng = np.random.default_rng(24)
        a = rng.standard_normal((12, 12))
        res = godec(a, 2, sparse_count=20, max_iter=2)
        assert res.converged in (True, False)
        assert res.iterations <= 2

    def test_input_whose_norm_cannot_be_squared_is_a_clear_error(self):
        a = np.random.default_rng(28).standard_normal((6, 4)) * 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"Frobenius norm must be below 1\.341e\+154"):
                godec(a, 2, sparse_count=2)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="^expected a 2-D matrix, got ndim=3$"):
            godec(np.ones((2, 4, 4)), 1)
        with pytest.raises(ValueError, match="sparse_count"):
            godec(np.ones((4, 4)), 1, sparse_count=-1)
        with pytest.raises(ValueError, match="max_iter"):
            godec(np.ones((4, 4)), 1, max_iter=0)
        with pytest.raises(ValueError, match="rank"):
            godec(np.ones((4, 4)), 9)


def scene_windows(seed: int, count: int) -> np.ndarray:
    """(count, 400, 64) stack: 20x20-pixel, 64-band windows of a rank-7
    scene with 5% impulses, as the pipeline fits them."""
    rng = np.random.default_rng(seed)
    mats = rng.uniform(0, 1, (count, 400, 7)) @ rng.uniform(0, 1, (7, 64)) / 7
    mats += 0.05 * rng.standard_normal(mats.shape)
    hit = rng.random(mats.shape) < 0.05
    mats[hit] = rng.integers(0, 2, hit.sum())
    return mats


def godec_instances(seed: int, count: int):
    """`count` seeded (matrix, rank, sparse_count, max_iter) GoDec inputs,
    cycling through tall, wide, tied-magnitude, rank-deficient and spiked
    matrices of 5 to 29 rows and columns; the last is one scene-shaped
    400 x 64 window at rank 7 with a 5% budget."""
    rng = np.random.default_rng(seed)
    for i in range(count - 1):
        k, l = sorted(rng.integers(5, 30, size=2))
        k, l = (l, k) if i % 5 != 1 else (k, l)  # tall, except the wide ones
        if i % 5 == 2:  # magnitudes 1 to 3: the sparse step cuts through ties
            a = rng.integers(1, 4, size=(k, l)) * rng.choice([-1.0, 1.0], size=(k, l))
        elif i % 5 == 3:  # rank r - 1, fitted at rank r
            r = int(rng.integers(1, min(k, l)))
            a = rng.standard_normal((k, r)) @ rng.standard_normal((r, l))
            yield a, r + 1, int(rng.integers(1, a.size // 4 + 1)), int(rng.integers(1, 60))
            continue
        elif i % 5 == 4:  # low rank, noise and spikes of +-3
            r = int(rng.integers(1, 4))
            a = rng.standard_normal((k, r)) @ rng.standard_normal((r, l))
            a += 0.05 * rng.standard_normal((k, l))
            hit = rng.choice(a.size, a.size // 20 + 1, replace=False)
            a.ravel()[hit] += 3.0 * rng.choice([-1.0, 1.0], size=hit.size)
        else:
            a = rng.standard_normal((k, l))
        rank = int(rng.integers(1, min(k, l, 6) + 1))
        yield a, rank, int(rng.integers(0, a.size // 4 + 1)), int(rng.integers(1, 60))
    yield scene_windows(seed, 1)[0], 7, 1280, 100


def test_godec_properties_on_seeded_random_instances():
    # The guarantees `godec` documents, on every input of the generator.
    for a, rank, sparse_count, max_iter in godec_instances(36, 240):
        res = godec(a, rank, sparse_count, max_iter=max_iter)
        assert np.all(np.diff(res.residual_history) <= 1e-12 * np.linalg.norm(a))
        f = res.factors
        assert np.linalg.norm(f.matrix() - res.low_rank) <= 1e-12 * np.linalg.norm(res.low_rank)
        eye = np.eye(rank)
        np.testing.assert_allclose(f.u.T @ f.u, eye, rtol=0, atol=1e-10)
        np.testing.assert_allclose(f.v.T @ f.v, eye, rtol=0, atol=1e-10)
        assert np.all(f.u[np.argmax(np.abs(f.u), axis=0), range(rank)] > 0)
        plain = godec(a, rank, 0, max_iter=max_iter)
        oracle = truncated_svd(a, rank)
        np.testing.assert_array_equal(plain.low_rank, oracle.matrix())
        for name in ("u", "s", "v"):
            np.testing.assert_array_equal(getattr(plain.factors, name), getattr(oracle, name))


class TestGodecStart:
    """`godec(..., start=f)` with f the input's rank-r truncated SVD skips
    the first fit and returns exactly what `godec` returns without it."""

    @staticmethod
    def assert_same(started, plain):
        np.testing.assert_array_equal(started.low_rank, plain.low_rank)
        np.testing.assert_array_equal(started.sparse, plain.sparse)
        for name in ("u", "s", "v"):
            np.testing.assert_array_equal(getattr(started.factors, name),
                                          getattr(plain.factors, name))
        assert started.iterations == plain.iterations
        assert started.converged == plain.converged
        assert started.residual_history == plain.residual_history

    @pytest.mark.parametrize("sparse_count, max_iter", [(1280, 100), (0, 100), (1280, 1)],
                             ids=["5%", "no-budget", "one-iteration"])
    def test_start_from_truncated_svd_changes_nothing(self, sparse_count, max_iter):
        for mat in scene_windows(61, 3):
            plain = godec(mat, 7, sparse_count, max_iter=max_iter)
            started = godec(mat, 7, sparse_count, max_iter=max_iter,
                            start=truncated_svd(mat, 7))
            self.assert_same(started, plain)

    def test_start_from_a_batched_stack_changes_nothing(self):
        # The pipeline's route: one batched SVD of many windows starts each.
        mats = scene_windows(62, 6)
        u, s, v = truncated_svd_batch(mats, 7)
        for i, mat in enumerate(mats):
            start = LowRankFactors(u=u[i], s=s[i], v=v[i])
            self.assert_same(godec(mat, 7, 1280, start=start), godec(mat, 7, 1280))

    @pytest.mark.parametrize("start_of", [
        lambda a: truncated_svd(a, 3),
        lambda a: truncated_svd(a[1:], 2),
        lambda a: truncated_svd(a[:, 1:], 2),
        lambda a: truncated_svd(a.T, 2),
    ], ids=["rank", "K", "L", "transposed"])
    def test_misshapen_start_rejected(self, start_of):
        a = np.random.default_rng(63).standard_normal((12, 9))
        with pytest.raises(ValueError, match="start must hold rank-2 factors of a 12x9"):
            godec(a, 2, 4, start=start_of(a))


class TestProcrustesRectify:
    def test_identity_when_already_aligned(self):
        rng = np.random.default_rng(25)
        fx, fy = balanced(truncated_svd(rng.standard_normal((10, 8)), 3))
        r = procrustes_rectify(fx, fy, fx, fy)
        np.testing.assert_allclose(r, np.eye(3), rtol=0, atol=1e-10)

    def test_recovers_gauge_rotation(self):
        rng = np.random.default_rng(26)
        fx, fy = balanced(truncated_svd(rng.standard_normal((10, 8)), 3))
        q = random_orthogonal(rng, 3)
        r = procrustes_rectify(fx @ q, fy @ q, fx, fy)
        np.testing.assert_allclose(r, q.T, rtol=0, atol=1e-10)
        residual = np.linalg.norm(fx @ q @ r - fx) + np.linalg.norm(fy @ q @ r - fy)
        assert residual <= 1e-10

    def test_orthogonality_of_result(self):
        rng = np.random.default_rng(27)
        fx, fy = balanced(truncated_svd(rng.standard_normal((10, 8)), 3))
        gx, gy = balanced(truncated_svd(rng.standard_normal((10, 8)), 3))
        r = procrustes_rectify(gx, gy, fx, fy)
        np.testing.assert_allclose(r @ r.T, np.eye(3), rtol=0, atol=1e-10)

    def test_beats_random_rotations(self):
        rng = np.random.default_rng(28)
        f = truncated_svd(rng.standard_normal((12, 9)), 3)
        noisy = f.matrix() + 0.05 * rng.standard_normal((12, 9))
        g = truncated_svd(noisy, 3)
        (fx, fy), (gx, gy) = balanced(f), balanced(g)

        def objective(rot):
            return (
                np.linalg.norm(gx @ rot - fx) ** 2
                + np.linalg.norm(gy @ rot - fy) ** 2
            )

        best = objective(procrustes_rectify(gx, gy, fx, fy))
        for _ in range(100):
            assert best <= objective(random_orthogonal(rng, 3)) + 1e-12

    def test_zero_input_falls_back_to_identity(self, caplog):
        z = np.zeros((6, 2))
        with caplog.at_level(logging.WARNING, logger="oracles"):
            r = procrustes_rectify(z, np.zeros((4, 2)), z, np.zeros((4, 2)))
        np.testing.assert_array_equal(r, np.eye(2))
        assert any("zero" in rec.message for rec in caplog.records)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            procrustes_rectify(
                np.ones((5, 2)), np.ones((4, 2)), np.ones((6, 2)), np.ones((4, 2))
            )


class TestFactorErrorSamples:
    @staticmethod
    def make_truth(rng, k=30, l=20, rank=2, sigmas=(3.0, 1.5)):
        u = np.linalg.qr(rng.standard_normal((k, rank)))[0]
        v = np.linalg.qr(rng.standard_normal((l, rank)))[0]
        return truncated_svd(u @ np.diag(sigmas) @ v.T, rank)

    def test_zero_noise_trials_give_zero_covariance(self):
        rng = np.random.default_rng(29)
        truth = self.make_truth(rng)
        cov_x, cov_y = factor_error_samples(truth, [truth, truth, truth])
        assert np.abs(cov_x).max() <= 1e-12
        assert np.abs(cov_y).max() <= 1e-12

    def test_requires_two_trials(self):
        rng = np.random.default_rng(30)
        truth = self.make_truth(rng)
        with pytest.raises(ValueError, match="at least 2"):
            factor_error_samples(truth, [truth])

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(31)
        truth = self.make_truth(rng)
        other = self.make_truth(rng, k=10, l=8)
        with pytest.raises(ValueError, match="shape"):
            factor_error_samples(truth, [other, other])

    def test_covariance_scales_with_noise_power(self):
        # Doubling the noise amplitude on the same draws must scale the
        # error covariance by 4 in the linear-perturbation regime.
        rng = np.random.default_rng(32)
        truth = self.make_truth(rng)
        draws = [rng.standard_normal((30, 20)) for _ in range(300)]
        covs = []
        for sigma0 in (0.01, 0.02):
            trials = [truncated_svd(truth.matrix() + sigma0 * g, 2) for g in draws]
            covs.append(factor_error_samples(truth, trials)[0])
        ratio = np.diag(covs[1]) / np.diag(covs[0])
        np.testing.assert_allclose(ratio, 4.0, rtol=0.1)

    def test_covariance_matches_inverse_sigma_law(self):
        # Monte Carlo oracle: across noisy refits, rectified factor-error
        # rows have covariance close to sigma0^2 * diag(1/s).
        rng = np.random.default_rng(33)
        truth = self.make_truth(rng)
        sigma0 = 0.02
        trials = [
            truncated_svd(truth.matrix() + sigma0 * rng.standard_normal((30, 20)), 2)
            for _ in range(400)
        ]
        cov_x, cov_y = factor_error_samples(truth, trials)
        target = sigma0**2 / truth.s
        np.testing.assert_allclose(np.diag(cov_x), target, rtol=0.2)
        np.testing.assert_allclose(np.diag(cov_y), target, rtol=0.2)
