"""End-to-end pipeline tests: config validation, exact recovery on clean
low-rank cubes, denoising gain under noise, the fit the sparse budget
picks, thread determinism, and consistency of the attached variance cube.

The no-overlap oracle rebuilds the expected output from scratch with
numpy.linalg.svd so the pipeline's window plumbing is checked against an
implementation that shares no code with it.
"""

import dataclasses
import logging
import sys
import threading
import time
import tracemalloc
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from lrma_uq import (
    HsiCube,
    NoiseSpec,
    PipelineConfig,
    WindowConfig,
    add_gaussian,
    aggregate_mean,
    apply_noise,
    denoise,
    denoise_with_uq,
    enumerate_patches,
    godec,
    lowrank,
    overlap_ratio,
    pipeline,
    synth_lowrank_cube,
    truncated_svd,
)
from oracles import covering_origins, other_layouts


def small_config(**overrides) -> PipelineConfig:
    """A pipeline config sized for little test cubes."""
    window = overrides.pop("window", WindowConfig(patch_side=6, step=3, rank=3))
    return PipelineConfig(window=window, **overrides)


def rmse(a: HsiCube, b: HsiCube) -> float:
    return float(np.sqrt(np.mean((a.data - b.data) ** 2)))


class TestPipelineConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.window == WindowConfig()
        assert cfg.sigma0 == 0.0
        assert cfg.max_iter == 100
        assert cfg.threads == 1
        fields = [f.name for f in dataclasses.fields(PipelineConfig)]
        assert fields == ["window", "sigma0", "max_iter", "threads"]

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            ({"solver": "tsvd"}, "solver"),
            ({"sigma0": -0.1}, "sigma0"),
            ({"max_iter": 0}, "max_iter"),
            ({"tol": 1e-7}, "tol"),
            ({"threads": 0}, "threads"),
            ({"threads": 1.5}, "threads"),
            ({"max_iter": 2.5}, "max_iter"),
        ],
    )
    def test_rejects_bad_values(self, kwargs, fragment):
        # solver and tol are not fields: the sparse budget alone picks the
        # fit, and godec keeps its own tol.
        error = TypeError if fragment in ("solver", "tol") else ValueError
        with pytest.raises(error, match=fragment):
            PipelineConfig(**kwargs)

    def test_accepts_numpy_integer_counts(self):
        cfg = PipelineConfig(max_iter=np.int64(5), threads=np.int32(2))
        assert (cfg.max_iter, cfg.threads) == (5, 2)

    @pytest.mark.parametrize("sigma0", [float("nan"), float("inf")])
    def test_rejects_non_finite_sigma0(self, sigma0):
        with pytest.raises(ValueError, match="sigma0 must be finite"):
            PipelineConfig(sigma0=sigma0)


class TestDenoise:
    def test_clean_lowrank_cube_is_recovered_exactly(self):
        # Every window of the synthetic cube has rank <= 3, so a rank-3
        # fit reproduces each patch and overlap averaging changes nothing.
        clean = synth_lowrank_cube((12, 12, 8), true_rank=3, seed=5)
        out = denoise(clean, small_config())
        np.testing.assert_allclose(out.data, clean.data, atol=1e-8)

    def test_clamped_grid_covers_whole_cube(self):
        # Dims that are not multiples of the step force clamped final
        # origins; the averaged output must still be finite everywhere
        # and exact on a clean low-rank cube.
        clean = synth_lowrank_cube((11, 10, 6), true_rank=2, seed=7)
        cfg = small_config(window=WindowConfig(patch_side=4, step=3, rank=2))
        out = denoise(clean, cfg)
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, clean.data, atol=1e-8)

    def test_denoising_reduces_rmse(self):
        clean = synth_lowrank_cube((24, 24, 12), true_rank=2, seed=11)
        noisy = add_gaussian(clean, 0.05, seed=11)
        cfg = small_config(window=WindowConfig(patch_side=8, step=4, rank=4))
        out = denoise(noisy, cfg)
        # A rank-4 fit on 12 bands keeps about 40% of the noise energy
        # (rank/pixels + rank/bands), so expect a solid but not dramatic cut.
        assert rmse(out, clean) < 0.75 * rmse(noisy, clean)

    def test_no_overlap_matches_numpy_svd_oracle(self):
        # step == patch_side tiles the cube exactly, so the output is just
        # each window's rank-r SVD approximation written in place. Rebuild
        # that from scratch with numpy.linalg.svd.
        rng = np.random.default_rng(21)
        clean = synth_lowrank_cube((12, 12, 7), true_rank=4, seed=21)
        noisy = HsiCube(clean.data + 0.03 * rng.standard_normal(clean.dims))
        side, rank = 6, 2
        cfg = small_config(window=WindowConfig(patch_side=side, step=side, rank=rank))
        out = denoise(noisy, cfg)

        expected = np.empty_like(noisy.data)
        for r0 in range(0, 12, side):
            for c0 in range(0, 12, side):
                block = noisy.data[r0:r0 + side, c0:c0 + side, :]
                mat = block.reshape(side * side, 7)
                u, s, vt = np.linalg.svd(mat, full_matrices=False)
                approx = (u[:, :rank] * s[:rank]) @ vt[:rank]
                expected[r0:r0 + side, c0:c0 + side, :] = approx.reshape(side, side, 7)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    @pytest.mark.parametrize("sparse_card", [0, 9])
    def test_matches_aggregate_mean_of_per_window_fits(self, sparse_card):
        # 13x11 image, side 5, step 3: the last origin is clamped on both
        # axes (8 after 6, and 6 after 3). Each window is fitted on its own
        # with truncated_svd (zero budget) or godec and the patches are
        # averaged by aggregate_mean, the oracle-tested averaging.
        clean = synth_lowrank_cube((13, 11, 6), true_rank=2, seed=41)
        noisy = add_gaussian(clean, 0.05, seed=41)
        window = WindowConfig(patch_side=5, step=3, rank=3, sparse_card=sparse_card)
        cfg = small_config(window=window)
        grid = enumerate_patches(noisy.dims, window)
        assert list(grid.row_origins) == [0, 3, 6, 8]
        assert list(grid.col_origins) == [0, 3, 6]

        patches = []
        for r0, c0 in grid.origins:
            mat = noisy.data[r0:r0 + 5, c0:c0 + 5, :].reshape(25, 6)
            if sparse_card == 0:
                approx = truncated_svd(mat, 3).matrix()
            else:
                approx = godec(mat, 3, sparse_card).low_rank
            patches.append(((r0, c0), approx.reshape(5, 5, 6)))
        expected = aggregate_mean(patches, grid)
        np.testing.assert_allclose(denoise(noisy, cfg).data, expected.data, rtol=0, atol=1e-12)

    def test_huge_finite_cube_is_fitted_as_if_unscaled(self, monkeypatch):
        # Entries above about 1e154 overflow a window's Gram matrix. Such a
        # window is fitted scaled by a power of two: u and v are those of
        # the unscaled cube and s is scaled by the cube's factor, exactly
        # for a power of two and to rounding for 1e160.
        clean = synth_lowrank_cube((12, 12, 6), true_rank=2, seed=45)
        cfg = small_config(window=WindowConfig(patch_side=8, step=4, rank=2))
        fits = []
        real = pipeline.truncated_svd_batch

        def spy(mats, rank):
            fits.append(real(mats, rank))
            return fits[-1]

        monkeypatch.setattr(pipeline, "truncated_svd_batch", spy)
        base = denoise(clean, cfg)
        (u0, s0, v0), = fits
        for factor, exact in ((2.0 ** 530, True), (1e160, False)):
            fits.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no overflow warning either
                out = denoise(HsiCube(clean.data * factor), cfg)
            (u, s, v), = fits
            if exact:
                np.testing.assert_array_equal(u, u0)
                np.testing.assert_array_equal(v, v0)
                np.testing.assert_array_equal(s, s0 * factor)
                np.testing.assert_array_equal(out.data, base.data * factor)
            else:
                np.testing.assert_allclose(u, u0, rtol=0, atol=1e-12)
                np.testing.assert_allclose(v, v0, rtol=0, atol=1e-12)
                np.testing.assert_allclose(s / factor, s0, rtol=1e-12)
                np.testing.assert_allclose(out.data / factor, base.data, rtol=0, atol=1e-12)

    def test_tsvd_fit_makes_no_per_window_svd_call(self, monkeypatch):
        noisy = add_gaussian(synth_lowrank_cube((12, 12, 6), true_rank=2, seed=43), 0.05, seed=43)
        calls = []
        real = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or real(*a, **k))
        denoise_with_uq(noisy, small_config(sigma0=0.05))
        assert calls == []

    def test_godec_fit_makes_one_full_eigh_per_window(self, monkeypatch):
        # Only GoDec's first fit takes the P x P Gram eigendecomposition, in
        # the group's batched SVD; the loop then iterates on its warm
        # subspace, and one Rayleigh-Ritz fit at its end decomposes an r x r
        # Gram. Matrices are counted, so a stack of n counts n.
        clean = synth_lowrank_cube((12, 12, 6), true_rank=2, seed=44)
        noisy = apply_noise(clean, NoiseSpec(sigma0=0.05, impulse_ratio=0.05, seed=44))
        window = WindowConfig(patch_side=6, step=3, rank=2, sparse_card=0.05)
        sizes = []
        real = np.linalg.eigh

        def eigh(a):
            sizes.extend([a.shape[-1]] * int(np.prod(a.shape[:-2])))
            return real(a)

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        denoise(noisy, small_config(window=window))
        windows = len(enumerate_patches(noisy.dims, window))
        assert sizes.count(6) == windows
        assert sizes.count(2) == windows and set(sizes) == {2, 6}

    def test_sparse_budget_absorbs_impulses(self):
        # A fit with a sparse budget should beat the plain truncated
        # SVD once isolated extreme outliers are present.
        clean = synth_lowrank_cube((12, 12, 8), true_rank=2, seed=9)
        corrupted = clean.data.copy()
        rng = np.random.default_rng(9)
        flat = rng.choice(corrupted.size, size=20, replace=False)
        corrupted.ravel()[flat] = rng.integers(0, 2, size=20).astype(np.float64)
        noisy = HsiCube(corrupted)

        window = WindowConfig(patch_side=6, step=3, rank=2, sparse_card=30)
        robust = denoise(noisy, small_config(window=window))
        plain = denoise(noisy, small_config())
        assert rmse(robust, clean) < rmse(plain, clean)

    @pytest.mark.parametrize("sparse_card", [0, 10])
    def test_iteration_cap_warning(self, caplog, sparse_card):
        # One GoDec iteration never meets the stopping rule, so every
        # window is capped; the batched TSVD of a zero budget never is.
        noisy = add_gaussian(synth_lowrank_cube((12, 12, 6), true_rank=2, seed=3), 0.05, seed=3)
        window = WindowConfig(patch_side=6, step=3, rank=2, sparse_card=sparse_card)
        with caplog.at_level(logging.WARNING, logger="lrma_uq.pipeline"):
            denoise(noisy, small_config(window=window, max_iter=1))
        message = "9 of 9 patches hit the iteration cap before converging"
        expected = [("lrma_uq.pipeline", logging.WARNING, message)] if sparse_card else []
        assert caplog.record_tuples == expected

    @pytest.mark.parametrize("threads", [1, 2])
    def test_godec_iterations_logged_at_debug(self, caplog, capsys, monkeypatch, threads):
        # One DEBUG line per GoDec run sums up every window's fit, in any
        # row order, and nothing reaches stdout; the batched TSVD of a zero
        # budget logs none.
        fits = []
        real = pipeline.godec

        def spy(*args, **kwargs):
            fit = real(*args, **kwargs)
            fits.append(fit)
            return fit

        monkeypatch.setattr(pipeline, "godec", spy)
        noisy = add_gaussian(synth_lowrank_cube((12, 12, 6), true_rank=2, seed=3), 0.05, seed=3)
        for sparse_card, max_iter in ((0.1, 100), (0.1, 2), (0, 100)):
            fits.clear()
            caplog.clear()
            window = WindowConfig(patch_side=6, step=3, rank=2, sparse_card=sparse_card)
            cfg = small_config(window=window, max_iter=max_iter, threads=threads)
            with caplog.at_level(logging.DEBUG, logger="lrma_uq.pipeline"):
                denoise(noisy, cfg)
            debug = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
            if not sparse_card:
                assert debug == [] and fits == []
                continue
            counts = [fit.iterations for fit in fits]
            capped = sum(not fit.converged for fit in fits)
            assert (capped > 0) == (max_iter == 2)
            assert debug == [f"godec: 9 windows, {np.mean(counts):.2f} mean and "
                             f"{max(counts)} max iterations, {capped} capped"]
        assert capsys.readouterr().out == ""


class TestThreadDeterminism:
    def test_thread_count_never_changes_output(self):
        # Both cubes have 4 origin rows: 3 workers do not divide them and 8
        # outnumber them. The 64-band, window-20 windows are large enough
        # that an unpinned OpenBLAS would split their products over threads.
        for dims, true_rank, seed, window in (
            ((14, 13, 6), 2, 13, WindowConfig(patch_side=5, step=3, rank=3)),
            ((32, 30, 64), 5, 67, WindowConfig(patch_side=20, step=4, rank=7)),
        ):
            clean = synth_lowrank_cube(dims, true_rank=true_rank, seed=seed)
            noisy = add_gaussian(clean, 0.05, seed=seed)
            assert enumerate_patches(dims, window).row_origins.size == 4
            outputs = []
            for threads in (1, 2, 3, 8):
                cfg = small_config(window=window, sigma0=0.05, threads=threads)
                den, var = denoise_with_uq(noisy, cfg)
                outputs.append((den.data, var.data))
            for den, var in outputs[1:]:
                np.testing.assert_array_equal(den, outputs[0][0])
                np.testing.assert_array_equal(var, outputs[0][1])

    def test_worker_count_never_changes_godec_output(self):
        # GoDec's warm start is per-window state: no iterate may leak into
        # another window or another worker's row.
        dims = (14, 13, 6)
        window = WindowConfig(patch_side=5, step=3, rank=3, sparse_card=0.05)
        clean = synth_lowrank_cube(dims, true_rank=2, seed=14)
        noisy = apply_noise(clean, NoiseSpec(sigma0=0.05, impulse_ratio=0.05, seed=14))
        assert enumerate_patches(dims, window).row_origins.size == 4
        outputs = []
        for threads in (1, 2, 3, 8):
            cfg = small_config(window=window, sigma0=0.05, threads=threads)
            den, var = denoise_with_uq(noisy, cfg)
            outputs.append((den.data, var.data))
        for den, var in outputs[1:]:
            np.testing.assert_array_equal(den, outputs[0][0])
            np.testing.assert_array_equal(var, outputs[0][1])


class TestInputLayout:
    # The fit gathers C-contiguous chunks, so the input's memory layout never
    # changes a byte. A Fortran-ordered or axis-swapped cube once came back
    # un-denoised: its gather could not be reshaped in place, and the fits
    # went to a copy.
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("sparse_card", [0, 0.1], ids=["tsvd", "godec"])
    def test_layout_never_changes_output(self, monkeypatch, sparse_card, threads):
        # Criterion 1's cube and window, in chunks of four windows so that
        # both workers fit.
        clean = synth_lowrank_cube((40, 40, 16), true_rank=3, seed=1)
        noisy = add_gaussian(clean, 0.05, seed=0)
        monkeypatch.setattr(pipeline, "_GROUP_BYTES", 4 * 8 * 8 * 16 * 8)
        cfg = small_config(window=WindowConfig(patch_side=8, step=4, rank=3,
                                               sparse_card=sparse_card),
                           sigma0=0.05, threads=threads)
        den, var = denoise_with_uq(noisy, cfg)
        assert rmse(den, clean) < 0.6 * rmse(noisy, clean)
        for name, cube in other_layouts(noisy.data).items():
            assert not cube.data.flags.c_contiguous, name
            other_den, other_var = denoise_with_uq(cube, cfg)
            assert other_den.data.tobytes() == den.data.tobytes(), name
            assert other_var.data.tobytes() == var.data.tobytes(), name


def test_no_data_stripe_through_godec(monkeypatch):
    # Criterion 1's cube with its first 12 rows zeroed, a no-data stripe:
    # the 18 windows of origin rows 0 and 4 are all zero, so both their
    # first fit and their final Ritz fit have a zero Gram, which the kernel
    # refits by its full SVD. truncated_svd never runs: the chunk's batched
    # SVD starts every window's GoDec.
    clean = synth_lowrank_cube((40, 40, 16), true_rank=3, seed=1)
    noisy = add_gaussian(clean, 0.05, seed=0)
    noisy.data[:12] = 0.0
    window = WindowConfig(patch_side=8, step=4, rank=3, sparse_card=0.05)
    calls = []
    real = lowrank.truncated_svd
    monkeypatch.setattr(lowrank, "truncated_svd",
                        lambda *args: calls.append(args[0].shape) or real(*args))
    outputs = []
    for threads in (1, 2):
        den, var = denoise_with_uq(noisy, small_config(window=window, sigma0=0.05,
                                                       threads=threads))
        assert np.all(den.data[:12] == 0.0)
        assert np.isfinite(den.data).all() and np.isfinite(var.data).all()
        outputs.append((den.data.tobytes(), var.data.tobytes()))
    assert outputs[0] == outputs[1]
    assert calls == []


class TestRowGroups:
    """Windows are fitted in chunks of up to `_GROUP_BYTES` once gathered:
    runs of as many consecutive windows as fit, and at least one window
    each, whether or not a run ends on an origin row's end. On a 23x14x5
    image with window 5/3, 7 row origins of 4 windows make 1,000-byte
    windows and 4,000-byte rows: a 1 MiB budget holds all 28 windows in one
    chunk, 12,000 bytes packs whole rows 3/3/1, 13,000 bytes runs of 13
    that end mid-row, 3,999 bytes runs of 3, 2,000 bytes runs of 2, and
    999 bytes leaves one window per chunk."""

    DIMS = (23, 14, 5)
    WINDOW_BYTES = 5 * 5 * 5 * 8
    ROW_BYTES = 4 * WINDOW_BYTES
    BUDGETS = [1 << 20, 3 * ROW_BYTES, 13 * WINDOW_BYTES, ROW_BYTES - 1, 2 * WINDOW_BYTES,
               WINDOW_BYTES - 1]
    IDS = ["all-rows", "3-3-1", "13-windows", "below-a-row", "two-windows", "below-a-window"]
    CHUNKS = [[28], [12, 12, 4], [13, 13, 2], [3] * 9 + [1], [2] * 14, [1] * 28]

    @pytest.fixture(scope="class", params=[0, 0.05], ids=["tsvd", "godec"])
    def case(self, request):
        clean = synth_lowrank_cube(self.DIMS, true_rank=2, seed=53)
        noisy = apply_noise(clean, NoiseSpec(sigma0=0.05, impulse_ratio=0.05, seed=53))
        window = WindowConfig(patch_side=5, step=3, rank=3, sparse_card=request.param)
        grid = enumerate_patches(noisy.dims, window)
        assert grid.row_origins.size == 7 and grid.col_origins.size == 4
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pipeline, "_GROUP_BYTES", 0)  # one window per chunk
            den, var = denoise_with_uq(noisy, small_config(window=window, sigma0=0.05))
        return noisy, window, den.data, var.data

    @pytest.mark.parametrize("budget", BUDGETS, ids=IDS)
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_group_size_never_changes_output(self, monkeypatch, case, budget, threads):
        noisy, window, den_rows, var_rows = case
        monkeypatch.setattr(pipeline, "_GROUP_BYTES", budget)
        den, var = denoise_with_uq(noisy, small_config(window=window, sigma0=0.05,
                                                       threads=threads))
        np.testing.assert_array_equal(den.data, den_rows)
        np.testing.assert_array_equal(var.data, var_rows)

    @pytest.mark.parametrize("budget, chunks", zip(BUDGETS, CHUNKS), ids=IDS)
    def test_no_chunk_exceeds_the_budget_or_one_window(self, monkeypatch, budget, chunks):
        stacks = []
        real = pipeline.truncated_svd_batch

        def spy(mats, rank):
            stacks.append(mats.nbytes)
            return real(mats, rank)

        monkeypatch.setattr(pipeline, "_GROUP_BYTES", budget)
        monkeypatch.setattr(pipeline, "truncated_svd_batch", spy)
        noisy = add_gaussian(synth_lowrank_cube(self.DIMS, true_rank=2, seed=54), 0.05, seed=54)
        denoise(noisy, small_config(window=WindowConfig(patch_side=5, step=3, rank=3)))
        assert max(stacks) <= max(budget, self.WINDOW_BYTES)
        assert stacks == [windows * self.WINDOW_BYTES for windows in chunks]


class _Recorded:
    """A pool future that notes whether its result was read."""

    def __init__(self, future):
        self.future, self.read = future, False

    def result(self):
        self.read = True
        return self.future.result()


class _RecordingPool(ThreadPoolExecutor):
    submitted: list = []

    def submit(self, fn, *args):
        future = _Recorded(super().submit(fn, *args))
        self.submitted.append(future)
        return future


class TestCommitTurn:
    """`pipeline._commit_in_order(fit, commit, count, workers)`: workers
    fit chunk indices, and commits run one at a time under the scheduler's
    lock, in index order."""

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    @pytest.mark.parametrize("count", [1, 5, 7, 16])
    def test_in_order_every_fit_committed_at_most_workers_plus_one_alive(
            self, monkeypatch, workers, count):
        monkeypatch.setattr(_RecordingPool, "submitted", [])
        monkeypatch.setattr(pipeline, "ThreadPoolExecutor", _RecordingPool)
        lock = threading.Lock()
        started, committed, alive, overlap = [], [], [], []
        active = 0  # commits running now

        def fit(i):
            with lock:
                started.append(i)
                alive.append(len(started) - len(committed))  # fitting or pending
            # Every fifth chunk is slow, so later ones finish before earlier ones.
            time.sleep(0.02 if i % 5 == 0 else 0.002)
            return ("fit", i)

        def commit(fitted):
            nonlocal active
            with lock:
                active += 1
                overlap.append(active)
                committed.append(fitted)
            time.sleep(0.001)
            with lock:
                active -= 1

        pipeline._commit_in_order(fit, commit, count, workers)
        assert committed == [("fit", i) for i in range(count)]
        assert max(overlap) == 1  # no two commits ever run at once
        assert sorted(started) == list(range(count))
        assert max(alive) <= workers + 1
        assert all(f.read for f in _RecordingPool.submitted)
        assert len(_RecordingPool.submitted) == min(workers, count) - 1

    def test_stress_more_workers_than_cores_with_a_short_switch_interval(self):
        # Threads switch every few bytecodes, so a check-then-act on `done`
        # or the pending fits outside the lock would drop, repeat or reorder
        # a commit, run two commits at once, or break the alive bound.
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (4, 8):
                lock = threading.Lock()
                started, committed, alive, overlap = [], [], [], []
                active = 0  # commits running now

                def fit(i):
                    with lock:
                        started.append(i)
                        alive.append(len(started) - len(committed))
                    return i

                def commit(i):
                    nonlocal active
                    with lock:
                        active += 1
                        overlap.append(active)
                        committed.append(i)
                    time.sleep(0)  # let another thread run mid-commit
                    with lock:
                        active -= 1

                t0 = time.perf_counter()
                pipeline._commit_in_order(fit, commit, 4000, workers)
                assert time.perf_counter() - t0 < 60
                assert committed == list(range(4000))
                assert max(overlap) == 1  # no two commits ever run at once
                assert max(alive) <= workers + 1
        finally:
            sys.setswitchinterval(old)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("bad", [0, 3])
    @pytest.mark.parametrize("where", ["fit", "commit"])
    def test_exception_stops_the_workers_and_reaches_the_caller(self, where, bad, workers):
        before = set(threading.enumerate())
        lock = threading.Lock()
        started = []

        def fit(i):
            with lock:
                started.append(i)
            if where == "fit" and i == bad:
                raise RuntimeError(f"chunk {i}")
            time.sleep(0.002)
            return i

        def commit(i):
            if where == "commit" and i == bad:
                raise RuntimeError(f"chunk {i}")

        with pytest.raises(RuntimeError, match=f"chunk {bad}"):
            pipeline._commit_in_order(fit, commit, 20, workers)
        assert set(threading.enumerate()) <= before  # no pool thread outlives the call
        # Chunk `bad` is never committed, so at most workers + 1 from it are taken.
        assert len(started) <= bad + workers + 1

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_no_committed_chunk_is_alive_while_a_later_one_is_fitted(self, workers):
        # A thread may be inside its latest commit while another checks, so
        # each thread's latest commit is checked by that thread itself, when
        # it next fits or commits; every other committed chunk must be gone.
        lock = threading.Lock()
        committed = []  # weakrefs of committed chunks, in commit order
        latest = {}  # thread -> index into `committed` of its latest commit

        class Chunk:
            pass

        def check(i):
            me = threading.get_ident()
            with lock:
                busy = {k for thread, k in latest.items() if thread != me}
                alive = [k for k, ref in enumerate(committed)
                         if k not in busy and ref() is not None]
            assert not alive, f"committed chunks {alive} still alive while chunk {i} is fitted"

        def fit(i):
            check(i)
            time.sleep(0.002 * (1 + i % 3))
            check(i)
            return Chunk()

        def commit(chunk):
            check("commit")
            with lock:
                latest[threading.get_ident()] = len(committed)
                committed.append(weakref.ref(chunk))
            time.sleep(0.001)

        pipeline._commit_in_order(fit, commit, 12, workers)
        assert len(committed) == 12
        assert all(ref() is None for ref in committed)

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    @pytest.mark.parametrize("count", [1, 5, 7, 16])
    def test_caller_fits_chunks_and_at_most_workers_minus_one_threads_help(self, workers, count):
        # One worker: the caller fits every chunk and no other thread runs fit.
        lock = threading.Lock()
        threads = {}

        def fit(i):
            with lock:
                threads[i] = threading.get_ident()
            time.sleep(0.002)
            return i

        out = []
        pipeline._commit_in_order(fit, out.append, count, workers)
        assert out == list(range(count))
        caller = threading.get_ident()
        assert threads[0] == caller
        if workers == 1:
            assert set(threads.values()) == {caller}
        assert len(set(threads.values()) - {caller}) <= workers - 1

    @pytest.fixture(scope="class")
    def scene(self):
        clean = synth_lowrank_cube((32, 30, 64), true_rank=7, seed=73)
        return apply_noise(clean, NoiseSpec(sigma0=0.05, impulse_ratio=0.05, seed=73))

    @pytest.mark.parametrize("sparse_card", [0, 0.05], ids=["tsvd", "godec"])
    def test_chunks_finished_out_of_order_commit_the_same_bytes(
            self, monkeypatch, scene, sparse_card):
        # Two 20x20x64 windows per chunk: the 16 windows make 8 chunks. The
        # calling thread's fits wait until pool threads have finished two, so
        # later chunks finish before earlier ones and wait for their commit.
        monkeypatch.setattr(pipeline, "_GROUP_BYTES", 2 * 20 * 20 * 64 * 8)
        window = WindowConfig(patch_side=20, step=4, rank=7, sparse_card=sparse_card)
        grid = enumerate_patches(scene.dims, window)
        first = {scene.data[r:r + 20, c:c + 20].tobytes(): i
                 for i, (r, c) in enumerate(grid.origins[::2])}
        assert len(first) == 8
        real_chunk, real_windows = pipeline._fit_chunk, pipeline._fit_windows
        caller, cv, order, records = threading.get_ident(), threading.Condition(), [], []

        def chunk_spy(chunk, *args):
            i = first[chunk[0].tobytes()]  # before the fit overwrites the chunk
            fitted = real_chunk(chunk, *args)
            with cv:
                if threading.get_ident() == caller:
                    assert cv.wait_for(lambda: len(order) >= 2, timeout=10)
                order.append(i)
                cv.notify_all()
            return fitted

        def windows_spy(*args, **kwargs):
            fitted = real_windows(*args, **kwargs)
            records.append(fitted[2])
            return fitted

        monkeypatch.setattr(pipeline, "_fit_windows", windows_spy)
        outputs = [denoise_with_uq(scene, small_config(window=window, sigma0=0.05))]
        monkeypatch.setattr(pipeline, "_fit_chunk", chunk_spy)
        for threads in (2, 3):
            order.clear()
            outputs.append(denoise_with_uq(scene, small_config(window=window, sigma0=0.05,
                                                               threads=threads)))
            assert sorted(order) == list(range(8)) and order != sorted(order), order
        for (den, var), record in zip(outputs[1:], records[1:]):
            np.testing.assert_array_equal(den.data, outputs[0][0].data)
            np.testing.assert_array_equal(var.data, outputs[0][1].data)
            assert set(record) == set(records[0])
            for name, values in records[0].items():
                assert record[name].tobytes() == values.tobytes(), name


class TestPerWindowRecord:
    """`_fit_chunk` returns its windows and a map of per-window arrays; the
    commit writes each one into a grid-length array in origin order.
    The 32x30x64 cube has 4 origin rows of 4 windows of 20x20x64, fitted
    one row per 1 MiB chunk."""

    DIMS = (32, 30, 64)
    KEYS = {0: {"row_lev", "col_lev"}, 0.05: {"row_lev", "col_lev", "iterations", "capped"}}

    @pytest.fixture(scope="class")
    def noisy(self):
        clean = synth_lowrank_cube(self.DIMS, true_rank=5, seed=71)
        return apply_noise(clean, NoiseSpec(sigma0=0.05, impulse_ratio=0.05, seed=71))

    @pytest.mark.parametrize("sparse_card", [0, 0.05], ids=["tsvd", "godec"])
    def test_arrays_never_depend_on_workers_or_chunks(self, monkeypatch, noisy, sparse_card):
        window = WindowConfig(patch_side=20, step=4, rank=7, sparse_card=sparse_card)
        count = len(enumerate_patches(self.DIMS, window))
        records = []
        for budget in (pipeline._GROUP_BYTES, 0):
            monkeypatch.setattr(pipeline, "_GROUP_BYTES", budget)
            for threads in (1, 2, 8):
                cfg = PipelineConfig(window=window, threads=threads)
                records.append(pipeline._fit_windows(noisy, cfg, True)[2])
        first = records[0]
        assert set(first) == self.KEYS[sparse_card]
        assert first["row_lev"].shape == (count, 400) and first["col_lev"].shape == (count, 64)
        if sparse_card:
            assert first["iterations"].shape == first["capped"].shape == (count,)
            assert first["capped"].dtype == bool
        for record in records[1:]:
            assert set(record) == set(first)
            for name, values in first.items():
                assert record[name].dtype == values.dtype, name
                assert record[name].tobytes() == values.tobytes(), name

    @pytest.mark.parametrize("max_iter", [100, 2])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_iterations_match_the_godec_calls(self, monkeypatch, noisy, max_iter, threads):
        fits = []
        real = pipeline.godec

        def spy(*args, **kwargs):
            fit = real(*args, **kwargs)
            fits.append((fit.iterations, fit.converged))
            return fit

        monkeypatch.setattr(pipeline, "godec", spy)
        window = WindowConfig(patch_side=20, step=4, rank=7, sparse_card=0.05)
        cfg = PipelineConfig(window=window, max_iter=max_iter, threads=threads)
        record = pipeline._fit_windows(noisy, cfg, False)[2]
        assert set(record) == {"iterations", "capped"}
        counts = [iterations for iterations, _ in fits]
        capped = sum(not converged for _, converged in fits)
        assert (capped > 0) == (max_iter == 2)
        assert record["iterations"].sum() == sum(counts)
        assert record["iterations"].max() == max(counts)
        assert np.count_nonzero(record["capped"]) == capped

    def test_tsvd_denoise_builds_no_per_window_array(self, monkeypatch, noisy):
        chunks, outputs = [], []
        real_chunk, real_windows = pipeline._fit_chunk, pipeline._fit_windows

        def chunk_spy(*args):
            fitted = real_chunk(*args)
            chunks.append(fitted[1])
            return fitted

        def windows_spy(*args, **kwargs):
            fitted = real_windows(*args, **kwargs)
            outputs.append(fitted[2])
            return fitted

        monkeypatch.setattr(pipeline, "_fit_chunk", chunk_spy)
        monkeypatch.setattr(pipeline, "_fit_windows", windows_spy)
        denoise(noisy, PipelineConfig(window=WindowConfig(patch_side=20, step=4, rank=7)))
        assert chunks == [{}] * 4
        assert outputs == [{}]


class TestDenoiseWithUq:
    @pytest.mark.parametrize("sparse_card", [0, 9])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_denoised_cube_matches_plain_denoise(self, sparse_card, threads):
        # Both fits rebuild their windows through one shared matmul, with or
        # without the leverages, for any worker count.
        clean = synth_lowrank_cube((12, 12, 6), true_rank=2, seed=17)
        noisy = add_gaussian(clean, 0.05, seed=17)
        window = WindowConfig(patch_side=6, step=3, rank=3, sparse_card=sparse_card)
        cfg = small_config(window=window, sigma0=0.05, threads=threads)
        den_only = denoise(noisy, cfg)
        den, _ = denoise_with_uq(noisy, cfg)
        np.testing.assert_array_equal(den.data, den_only.data)

    def test_variance_zero_without_noise_level(self):
        clean = synth_lowrank_cube((12, 12, 6), true_rank=2, seed=19)
        _, var = denoise_with_uq(clean, small_config(sigma0=0.0))
        np.testing.assert_array_equal(var.data, np.zeros(clean.dims))

    def test_variance_positive_and_scales_with_sigma0_squared(self):
        clean = synth_lowrank_cube((12, 12, 6), true_rank=2, seed=23)
        noisy = add_gaussian(clean, 0.05, seed=23)
        _, var1 = denoise_with_uq(noisy, small_config(sigma0=0.05))
        _, var2 = denoise_with_uq(noisy, small_config(sigma0=0.10))
        assert (var1.data >= 0).all()
        assert var1.data.mean() > 0
        # Same fit factors, doubled noise std: variances scale by 4 exactly.
        np.testing.assert_allclose(var2.data, 4.0 * var1.data, rtol=1e-12)

    def test_variance_matches_per_window_leverage_oracle(self):
        # On a non-overlapping tiling each voxel has one window, so the
        # split reduces to sigma0^2 * (row leverage + column leverage) of
        # that window, both recomputed here with numpy.linalg.svd.
        rng = np.random.default_rng(31)
        noisy = HsiCube(rng.uniform(0.1, 0.9, size=(8, 8, 5)))
        side, rank, s0 = 4, 2, 0.07
        cfg = PipelineConfig(
            window=WindowConfig(patch_side=side, step=side, rank=rank),
            sigma0=s0,
        )
        _, var = denoise_with_uq(noisy, cfg)

        expected = np.empty_like(noisy.data)
        for r0 in range(0, 8, side):
            for c0 in range(0, 8, side):
                mat = noisy.data[r0:r0 + side, c0:c0 + side, :].reshape(side * side, 5)
                u, _, vt = np.linalg.svd(mat, full_matrices=False)
                row_lev = (u[:, :rank] ** 2).sum(axis=1)
                col_lev = (vt[:rank] ** 2).sum(axis=0)
                block = s0 * s0 * (row_lev[:, None] + col_lev[None, :])
                expected[r0:r0 + side, c0:c0 + side, :] = block.reshape(side, side, 5)
        np.testing.assert_allclose(var.data, expected, atol=1e-12)

    def test_overlap_variance_matches_leverage_split_oracle(self):
        # 11x9 image, side 4, step 3: clamped, unevenly spaced last origins
        # on both axes. Each window is refitted with numpy.linalg.svd and the
        # split formula is summed voxel by voxel:
        #   var = s0^2/phi^2 * [sum_{p,q} rho_pq sqrt(lu_p lu_q)
        #                       + (sum_p sqrt(lv_p))^2]
        rng = np.random.default_rng(47)
        noisy = HsiCube(rng.uniform(0.1, 0.9, size=(11, 9, 5)))
        side, rank, s0 = 4, 2, 0.07
        window = WindowConfig(patch_side=side, step=3, rank=rank)
        _, var = denoise_with_uq(noisy, PipelineConfig(window=window, sigma0=s0))

        lev = {}
        for r0, c0 in enumerate_patches(noisy.dims, window).origins:
            mat = noisy.data[r0:r0 + side, c0:c0 + side, :].reshape(side * side, 5)
            u, _, vt = np.linalg.svd(mat, full_matrices=False)
            lev[(r0, c0)] = (
                (u[:, :rank] ** 2).sum(axis=1).reshape(side, side),
                (vt[:rank] ** 2).sum(axis=0),
            )
        grid = enumerate_patches(noisy.dims, window)
        expected = np.empty(noisy.dims)
        for row in range(11):
            for col in range(9):
                cover = covering_origins(grid, row, col)
                lu = [lev[o][0][row - o[0], col - o[1]] for o in cover]
                spatial = sum(
                    overlap_ratio(op, oq, side) * np.sqrt(lu[a] * lu[b])
                    for a, op in enumerate(cover)
                    for b, oq in enumerate(cover)
                )
                spectral = sum(np.sqrt(lev[o][1]) for o in cover) ** 2
                expected[row, col, :] = s0 * s0 * (spatial + spectral) / len(cover) ** 2
        np.testing.assert_allclose(var.data, expected, rtol=0, atol=1e-12)


class TestMemory:
    """Peak allocations of one call, in cubes of the input's size.

    tracemalloc sees numpy's buffers. On a 96x96x32 cube (window 20, step
    4, rank 7, TSVD) one origin row of 20 windows is 0.87 cubes, so each
    chunk is 10 windows, 0.43 cubes. Plain denoising needs the accumulator,
    divided in place into the output, and at most `workers` + 1 fitted
    chunks; with the variance it also needs the grid's leverages and the
    variance cube. One worker read 1.7 and 3.0 cubes, two 2.5-2.8 and
    3.3-3.4. A P-fold coverage cube or a second copy of each row, as
    before, peaked at 5.0 and 5.6; one whole row per chunk, with two
    workers, at 3.8-4.1 and 4.3-4.7.
    """

    @staticmethod
    def peak_cubes(fn, cube: HsiCube) -> float:
        fn()  # warm-up, so lazy state is not counted
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / cube.data.nbytes
        finally:
            tracemalloc.stop()

    @pytest.fixture(scope="class", params=[1, 2], ids=["one-worker", "two-workers"])
    def scene(self, request):
        cube = add_gaussian(synth_lowrank_cube((96, 96, 32), true_rank=7, seed=1), 0.05, seed=2)
        cfg = PipelineConfig(window=WindowConfig(patch_side=20, step=4, rank=7),
                             sigma0=0.05, threads=request.param)
        return cube, cfg

    def test_denoise_peak(self, scene):
        cube, cfg = scene
        assert self.peak_cubes(lambda: denoise(cube, cfg), cube) <= 3.0

    def test_denoise_with_uq_peak(self, scene):
        cube, cfg = scene
        assert self.peak_cubes(lambda: denoise_with_uq(cube, cfg), cube) <= 3.6

    def test_godec_chunk_peak(self):
        # A chunk of five 400x64 windows, as on the benchmark scenes, with
        # 5% impulses and a 5% budget. Beyond the gathered chunk, a window's
        # GoDec pass needs its low-rank part, its residual and
        # `_largest_index`'s two copies: 4.9 windows' bytes, or 6.9 while
        # the last pass's x, residual and low-rank part are still alive.
        rng = np.random.default_rng(5)
        chunk = rng.uniform(0, 1, (5, 400, 7)) @ rng.uniform(0, 1, (5, 7, 64)) / 7
        chunk += 0.05 * rng.standard_normal(chunk.shape)
        hit = rng.random(chunk.shape) < 0.05
        chunk[hit] = rng.integers(0, 2, hit.sum())
        chunk = chunk.reshape(5, 20, 20, 64)
        cfg = PipelineConfig(window=WindowConfig(patch_side=20, step=4, rank=7, sparse_card=0.05))
        pipeline._fit_chunk(chunk.copy(), cfg, True)  # warm-up, so lazy state is not counted
        fitted = chunk.copy()
        tracemalloc.start()
        try:
            total = pipeline._fit_chunk(fitted, cfg, True)[1]["iterations"].sum()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert total > 2 * len(chunk)  # GoDec ran warm passes
        assert peak <= 5.5 * chunk[0].nbytes
