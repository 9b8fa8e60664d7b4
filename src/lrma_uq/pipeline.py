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
from .cube import HsiCube, VoxelIndex, _require_counts, hadamard_divide, scatter_add_patch
from .lowrank import LowRankFactors, godec, truncated_svd_batch
from .uncertainty import aggregate_variance
from .windows import WindowConfig, enumerate_patches, patch_to_matrix

_log = logging.getLogger(__name__)

# Byte budget of one chunk of windows once gathered. A chunk is as many
# whole origin rows as fit in the budget; a row over it is cut into runs of
# consecutive windows that do, and every chunk holds at least one window.
# A chunk pays the fixed cost of its numpy calls once, not once per window,
# and caps the fit's working set on large scenes. Rows under the budget are
# not split to feed more workers: on 40x40x16 (window 8/4/3) with two
# workers, two groups of the nine rows denoised slower than one.
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
        if not 0 <= self.sigma0 < np.inf:
            raise ValueError(f"sigma0 must be finite and >= 0, got {self.sigma0}")
        _require_counts(max_iter=self.max_iter, threads=self.threads)


def _fit_chunk(chunk: np.ndarray, cfg: PipelineConfig, leverage: bool) -> tuple:
    """Rank-r fit of a chunk of consecutive windows.

    `chunk` is the gathered, C-contiguous (windows, J, J, P) stack; each
    window is a (J*J) x P matrix, pixels in row-major order by bands.
    One batched truncated SVD fits every window of the chunk. A positive
    sparse budget then refines each window with GoDec, started from that
    SVD. One batched matmul rebuilds each approximation u diag(s) v^T over
    the chunk's `patch_to_matrix` view. Returns the chunk, the row
    (windows, J*J) and column (windows, P) leverages, or None for each
    when not asked for, the sum and the maximum of the windows' GoDec
    iteration counts (0 for the truncated SVD) and the count of windows
    that hit the GoDec iteration cap. The factors are not returned, so a
    fitted chunk waiting for its commit holds little beyond its windows.
    """
    w = cfg.window
    mats = patch_to_matrix(chunk)
    k = w.sparse_count(mats[0].size)
    u, s, v = truncated_svd_batch(mats, w.rank)
    total = most = stalled = 0
    if k:
        for i, m in enumerate(mats):
            start = LowRankFactors(u=u[i], s=s[i], v=v[i])
            fit = godec(m, w.rank, k, max_iter=cfg.max_iter, start=start)
            u[i], s[i], v[i] = fit.factors.u, fit.factors.s, fit.factors.v
            total += fit.iterations
            most = max(most, fit.iterations)
            stalled += not fit.converged
            del fit  # its dense parts are not read: drop them before the next window
    np.matmul(u * s[:, None, :], np.swapaxes(v, 1, 2).copy(), out=mats)
    if not leverage:
        return chunk, None, None, total, most, stalled
    return (chunk, np.einsum("nur,nur->nu", u, u), np.einsum("nvr,nvr->nv", v, v),
            total, most, stalled)


def _commit_in_order(fit, commit, count: int, workers: int) -> None:
    """Run commit(fit(i)) for i = 0, ..., count - 1: fits on up to `workers`
    threads, commits one at a time and in index order.

    The calling thread fits index 0 and `workers` - 1 pool threads the next
    ones; then each worker takes the next free index. A finished fit is left
    pending, and the worker that holds the commit turn commits every pending
    fit whose turn has come, in index order; a worker that finishes out of
    turn takes the next index instead. An index is taken only while no more
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
    turn = failed = False

    def work(i):
        nonlocal taken, done, turn, failed
        try:
            while True:
                fitted = fit(i)
                with cv:
                    pending[i] = fitted
                    del fitted  # the dict holds the only reference
                    mine = not (turn or failed) and done in pending
                    turn = turn or mine
                while mine:
                    # Only the turn's holder pops and moves `done`; the
                    # popped fit dies as soon as commit returns.
                    commit(pending.pop(done))
                    with cv:
                        done += 1
                        cv.notify_all()
                        mine = turn = not failed and done in pending
                with cv:
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
    """Fit every window and average the fits: (grid, mean, row_lev, col_lev).

    Windows are fitted in chunks of consecutive windows in grid.origins
    (sorted-origin) order: as many whole origin rows as fit in
    `_GROUP_BYTES` once gathered, or, when one row is over it, as many of
    a row's windows as fit, and at least one. numpy's OpenBLAS is held at
    one thread. Workers fit chunks, and the one commit turn writes every
    output (`_commit_in_order`): each chunk's windows are added one at a
    time through `scatter_add_patch`, in sorted-origin order, so no stack
    of all windows is ever held and every voxel's sum runs in the same
    order for any worker count or chunk size. Then the chunk's leverages
    are written in that order, or None when not asked for. The sum is
    divided by the coverage in place.
    """
    grid = enumerate_patches(cube.dims, cfg.window)
    jside = cfg.window.patch_side
    # (row origin, col origin, J, J, P): every window position, as a view.
    windows = np.moveaxis(sliding_window_view(cube.data, (jside, jside), axis=(0, 1)), 2, 4)
    rows, cols = np.array(grid.origins).T
    per = max(1, _GROUP_BYTES // (jside * jside * cube.bands * cube.data.itemsize))
    if per >= grid.col_origins.size:
        per -= per % grid.col_origins.size  # whole origin rows
    if leverage:
        row_lev = np.empty((len(grid), jside * jside))
        col_lev = np.empty((len(grid), cube.bands))

    acc = HsiCube.zeros(cube.dims)
    total = most = stalled = 0
    done = 0

    def fit(i):
        here = slice(i * per, (i + 1) * per)
        return _fit_chunk(windows[rows[here], cols[here]], cfg, leverage)

    def commit(fitted):
        nonlocal total, most, stalled, done
        approx, lu, lv, chunk_total, chunk_most, capped = fitted
        here = slice(done, done + len(approx))
        for (r, c), block in zip(grid.origins[here], approx):
            scatter_add_patch(acc, VoxelIndex(r, c, 0), block)
        if leverage:
            row_lev[here], col_lev[here] = lu, lv
        done = here.stop
        total += chunk_total
        most = max(most, chunk_most)
        stalled += capped

    with blas._one_thread():
        _commit_in_order(fit, commit, -(-len(grid) // per), cfg.threads)
    if total:
        _log.debug("godec: %d windows, %.2f mean and %d max iterations, %d capped",
                   len(grid), total / len(grid), most, stalled)
    if stalled:
        _log.warning("%d of %d patches hit the iteration cap before converging",
                     stalled, len(grid))
    mean = hadamard_divide(acc, grid.coverage, out=acc)
    if not leverage:
        return grid, mean, None, None
    return grid, mean, row_lev, col_lev


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
    grid, mean, row_lev, col_lev = _fit_windows(cube, cfg, leverage=True)
    return mean, aggregate_variance(row_lev, col_lev, grid, cfg.sigma0)
