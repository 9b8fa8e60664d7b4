"""End-to-end denoising: sliding-window low-rank fitting with overlap
averaging, plus the closed-form per-voxel variance cube produced from the
same per-patch factors at a small constant overhead."""

from __future__ import annotations

import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import blas
from .cube import (HsiCube, VoxelIndex, _require_counts, _require_nonnegative, hadamard_divide,
                   scatter_add_patch)
from .lowrank import LowRankFactors, godec, truncated_svd_batch
from .uncertainty import aggregate_variance
from .windows import WindowConfig, enumerate_patches, patch_to_matrix

_log = logging.getLogger(__name__)

# Byte budget of one chunk of windows once gathered. A chunk is as many
# consecutive windows as fit in the budget, and at least one. It pays the
# fixed cost of its numpy calls once, not once per window, and caps the
# fit's working set on large scenes. Chunks are not cut below the budget
# to feed more workers: on 40x40x16 (window 8/4/3) with two workers, two
# groups of the nine rows denoised slower than one.
_GROUP_BYTES = 1 << 20


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a denoising run needs besides the cube itself.

    The window's sparse budget alone picks the fit: zero runs the batched
    truncated SVD, a positive budget GoDec. sigma0 is the global noise std
    used only by the variance path. threads is the number of workers that
    fit chunks of windows concurrently, the calling thread being one of
    them (1 = serial, the default here; the CLI defaults to the usable
    cores). The fit holds numpy's OpenBLAS at one thread for every worker
    count (see `blas._one_thread`), so the workers never oversubscribe the
    cores or change the output bytes.
    """

    window: WindowConfig = WindowConfig()
    sigma0: float = 0.0
    max_iter: int = 100
    threads: int = 1

    def __post_init__(self) -> None:
        _require_nonnegative(sigma0=self.sigma0)
        _require_counts(max_iter=self.max_iter, threads=self.threads)


def _fit_chunk(chunk: np.ndarray, cfg: PipelineConfig, leverage: bool) -> tuple:
    """Rank-r fit of a chunk of consecutive windows: (windows, per_window).

    `chunk` is the gathered, C-contiguous (windows, J, J, P) stack; each
    window is a (J*J) x P matrix, pixels in row-major order by bands.
    One batched truncated SVD fits every window of the chunk. A positive
    sparse budget then refines each window with GoDec, started from that
    SVD. One batched matmul rebuilds each approximation u diag(s) v^T over
    `patch_to_matrix(chunk)`, a view because the chunk is C-contiguous, so
    the fits land in the chunk itself: the returned windows. `per_window`
    maps a name to an array with one leading entry per window: the row
    (windows, J*J) and column (windows, P) leverages `row_lev` and `col_lev`
    when asked for, and on the GoDec path each window's `iterations` and
    whether it hit the cap (`capped`). The factors are not returned, so a
    fitted chunk waiting for its commit holds little beyond its windows.
    """
    w = cfg.window
    mats = patch_to_matrix(chunk)
    k = w.sparse_count(mats[0].size)
    u, s, v = truncated_svd_batch(mats, w.rank)
    per_window = {}
    if k:
        iterations = per_window["iterations"] = np.empty(len(mats), dtype=int)
        capped = per_window["capped"] = np.empty(len(mats), dtype=bool)
        for i, m in enumerate(mats):
            start = LowRankFactors(u=u[i], s=s[i], v=v[i])
            fit = godec(m, w.rank, k, max_iter=cfg.max_iter, start=start)
            u[i], s[i], v[i] = fit.factors.u, fit.factors.s, fit.factors.v
            iterations[i], capped[i] = fit.iterations, not fit.converged
            del fit  # its dense parts are not read: drop them before the next window
    np.matmul(u * s[:, None, :], np.swapaxes(v, 1, 2).copy(), out=mats)
    if leverage:
        per_window["row_lev"] = np.einsum("nur,nur->nu", u, u)
        per_window["col_lev"] = np.einsum("nvr,nvr->nv", v, v)
    return chunk, per_window


def _commit_in_order(fit, commit, count: int, workers: int) -> None:
    """Run commit(fit(i)) for i = 0, ..., count - 1: fits on up to `workers`
    threads, commits one at a time and in index order.

    The calling thread fits index 0 and `workers` - 1 pool threads the next
    ones; then each worker takes the next free index. Fits run outside the
    scheduler's one lock, commits under it: a worker stores its finished fit
    as pending and, still holding the lock, commits every pending fit whose
    index is next, in index order, so a fit that finished early waits for
    whichever worker finds it next. An index is taken only while no more
    than `workers` + 1 fits are alive, fitting, pending or being committed,
    and each fit is dropped as soon as it is committed. The first exception
    stops the workers from taking more and is raised here once every pool
    thread has returned. With one worker this is a plain loop.

    Keep the caller a worker: a plain pool of `workers` threads with the
    caller only consuming holds one more fit alive, which raised peak RSS by
    9-12% on both benchmark scenes, past the 5% bound (see ROADMAP). Keep
    the pool at `workers` - 1 threads, each running one worker to the end.
    """
    workers = min(workers, count)
    if workers < 2:
        for i in range(count):
            commit(fit(i))
        return
    cv = threading.Condition()
    pending = {}
    taken, done = workers, 0
    failed = False

    def work(i):
        nonlocal taken, done, failed
        try:
            while True:
                fitted = fit(i)
                with cv:
                    pending[i] = fitted
                    del fitted  # the dict holds the only reference
                    while not failed and done in pending:
                        commit(pending.pop(done))  # the fit dies as commit returns
                        done += 1
                    cv.notify_all()
                    cv.wait_for(lambda: failed or taken == count or taken - done <= workers)
                    if failed or taken == count:
                        return
                    i, taken = taken, taken + 1
        except BaseException:
            with cv:
                failed = True
                cv.notify_all()
            raise

    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        futures = [pool.submit(work, i) for i in range(1, workers)]
        work(0)
        for future in futures:
            future.result()


def _fit_windows(cube: HsiCube, cfg: PipelineConfig, leverage: bool):
    """Fit every window and average the fits: (grid, mean, per_window).

    Windows are fitted in chunks of consecutive windows in grid.origins
    (sorted-origin) order: as many as fit in `_GROUP_BYTES` once gathered,
    and at least one. Each chunk is gathered C-contiguous whatever the
    cube's memory layout, so the layout never changes an output byte; from
    a C-ordered cube, as `read_cube` returns, each window's pixels are
    gathered as contiguous runs of bands. numpy's OpenBLAS is held at one
    thread. Workers fit chunks; whichever finds the next chunk pending
    commits it, under the scheduler's one lock (`_commit_in_order`). Each
    chunk's windows are added one at a time through `scatter_add_patch`,
    in sorted-origin order, so no stack of all windows is ever held and
    every voxel's sum runs in the same order for any worker count or chunk
    size. Each per-window array fills the grid slice its fit returned of
    one grid-length array per name, allocated at first sight. The sum is
    divided by the coverage in place.
    """
    grid = enumerate_patches(cube.dims, cfg.window)
    jside = cfg.window.patch_side
    # (row origin, col origin, J, J, P): every window position, as a view.
    windows = np.moveaxis(sliding_window_view(cube.data, (jside, jside), axis=(0, 1)), 2, 4)
    rows, cols = np.array(grid.origins).T
    per = max(1, _GROUP_BYTES // (jside * jside * cube.bands * cube.data.itemsize))

    acc = HsiCube.zeros(cube.dims)
    per_window = {}

    def fit(i):
        here = slice(i * per, (i + 1) * per)
        return here, *_fit_chunk(np.ascontiguousarray(windows[rows[here], cols[here]]), cfg, leverage)

    def commit(fitted):
        here, approx, arrays = fitted
        for (r, c), block in zip(grid.origins[here], approx):
            scatter_add_patch(acc, VoxelIndex(r, c, 0), block)
        for name, values in arrays.items():
            if name not in per_window:
                per_window[name] = np.empty((len(grid),) + values.shape[1:], values.dtype)
            per_window[name][here] = values

    with blas._one_thread():
        _commit_in_order(fit, commit, -(-len(grid) // per), cfg.threads)
    if "iterations" in per_window:
        iterations, capped = per_window["iterations"], np.count_nonzero(per_window["capped"])
        _log.debug("godec: %d windows, %.2f mean and %d max iterations, %d capped",
                   len(grid), iterations.mean(), iterations.max(), capped)
        if capped:
            _log.warning("%d of %d patches hit the iteration cap before converging",
                         capped, len(grid))
    return grid, hadamard_divide(acc, grid.coverage, out=acc), per_window


def denoise(cube: HsiCube, cfg: PipelineConfig) -> HsiCube:
    """Sliding-window low-rank denoising with overlap averaging."""
    return _fit_windows(cube, cfg, leverage=False)[1]


def denoise_with_uq(cube: HsiCube, cfg: PipelineConfig) -> tuple[HsiCube, HsiCube]:
    """Denoise and also return the closed-form per-voxel variance cube.

    The variance reuses each window's fit factors, so the only additional
    work over `denoise` is the leverage arithmetic and one variance
    aggregation pass; no further matrix decompositions are run.

    The window error is split by leverage (`aggregate_variance`): the
    spatial (row-leverage) part is correlated between windows by their
    shared-footprint fraction, the spectral (column-leverage) part fully.
    """
    grid, mean, per_window = _fit_windows(cube, cfg, leverage=True)
    return mean, aggregate_variance(per_window["row_lev"], per_window["col_lev"], grid, cfg.sigma0)
