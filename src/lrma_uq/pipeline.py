"""End-to-end denoising: sliding-window low-rank fitting with overlap
averaging, plus the closed-form per-voxel variance cube produced from the
same per-patch factors at a small constant overhead."""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import blas
from .cube import HsiCube, VoxelIndex, _require_counts, hadamard_divide, scatter_add_patch
from .lowrank import godec, truncated_svd_batch
from .uncertainty import aggregate_variance
from .windows import WindowConfig, enumerate_patches, patch_to_matrix

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a denoising run needs besides the cube itself.

    The window's sparse budget alone picks the fit: zero runs the batched
    truncated SVD, a positive budget GoDec. sigma0 is the global noise std
    used only by the variance path. threads is the number of workers that
    fit origin rows of windows concurrently, the calling thread being one
    of them (1 = serial, the default here; the CLI defaults to the usable
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


def _fit_row(windows: np.ndarray, col_origins: np.ndarray, cfg: PipelineConfig) -> tuple:
    """Rank-r fit of the windows at one row origin.

    `windows` is the (N-J+1, P, J, J) sliding-window view of the row's
    J-pixel slab; each window becomes a (J*J) x P matrix, pixels in
    row-major order by bands. A zero sparse budget fits the row with one
    batched truncated SVD; a positive one runs GoDec window by window.
    Either way one batched matmul rebuilds each approximation u diag(s) v^T
    over its `patch_to_matrix` view of the gathered, C-contiguous row.
    Returns that (windows, J, J, P) row, the u (windows, J*J, r) and v
    (windows, P, r) factors, the sum and the maximum of the windows' GoDec
    iteration counts (0 for the truncated SVD) and the count of windows
    that hit the GoDec iteration cap.
    """
    w = cfg.window
    row = np.moveaxis(windows, 1, 3)[col_origins]
    mats = patch_to_matrix(row)
    n, jj, p = mats.shape
    k = w.sparse_count(jj * p)
    total = most = stalled = 0
    if k == 0:
        u, s, v = truncated_svd_batch(mats, w.rank)
    else:
        u, s, v = np.empty((n, jj, w.rank)), np.empty((n, w.rank)), np.empty((n, p, w.rank))
        for i, m in enumerate(mats):
            fit = godec(m, w.rank, k, max_iter=cfg.max_iter)
            u[i], s[i], v[i] = fit.factors.u, fit.factors.s, fit.factors.v
            total += fit.iterations
            most = max(most, fit.iterations)
            stalled += not fit.converged
    np.matmul(u * s[:, None, :], np.swapaxes(v, 1, 2), out=mats)
    return row, u, v, total, most, stalled


def _ordered(fn, count: int, workers: int):
    """Yield fn(0), ..., fn(count - 1) in order, computed by `workers` threads.

    Rows go in batches of `workers`: the pool fits all but the first row of
    a batch while the calling thread fits the first, and every pool result
    is read in order, so a worker's exception is raised here. Each future
    is popped before its row is yielded, so no row stays alive here once
    the consumer drops it.

    Keep the caller a worker: a plain pool of `workers` threads with the
    caller only consuming holds one more row in flight, which raised peak
    RSS by 9-12% on both benchmark scenes, past the 5% bound (see ROADMAP).
    Keep the pool at `workers` - 1: a submit that races a thread's return
    to idle would start one more fitting thread, which costs RSS too.
    """
    with ThreadPoolExecutor(max_workers=max(workers - 1, 1)) as pool:
        for start in range(0, count, workers):
            rest = [pool.submit(fn, i) for i in range(start + 1, min(start + workers, count))]
            yield fn(start)
            while rest:
                yield rest.pop(0).result()


def _fit_windows(cube: HsiCube, cfg: PipelineConfig, leverage: bool):
    """Fit every window and average the fits: (grid, mean, row_lev, col_lev).

    Windows are fitted one origin row at a time, with numpy's OpenBLAS held
    at one thread; the workers only fit, and this thread writes every
    output. As each row arrives its windows are added one at a time
    through `scatter_add_patch`, in grid.origins (sorted-origin) order, so
    no stack of all windows is ever held and every voxel's sum runs in the
    same order for any worker count. Then the row's leverages are formed
    from its factors in that order, or None when not asked for.
    """
    grid = enumerate_patches(cube.dims, cfg.window)
    jside = cfg.window.patch_side
    ro, co = grid.row_origins, grid.col_origins
    slabs = sliding_window_view(cube.data, (jside, jside), axis=(0, 1))
    if leverage:
        row_lev = np.empty((ro.size, co.size, jside * jside))
        col_lev = np.empty((ro.size, co.size, cube.bands))

    acc = HsiCube.zeros(cube.dims)
    total = most = stalled = 0
    with blas._one_thread():
        rows = _ordered(lambda i: _fit_row(slabs[ro[i]], co, cfg), ro.size, cfg.threads)
        for i, r in enumerate(ro.tolist()):
            # next() rather than enumerate(rows), whose reused result tuple
            # would keep the previous row alive while the next is fitted;
            # `block` is deleted too, as it is a view of the row.
            approx, u, v, row_total, row_most, capped = next(rows)
            for c, block in zip(co.tolist(), approx):
                scatter_add_patch(acc, VoxelIndex(r, c, 0), block)
            if leverage:
                np.einsum("nur,nur->nu", u, u, out=row_lev[i])
                np.einsum("nvr,nvr->nv", v, v, out=col_lev[i])
            total += row_total
            most = max(most, row_most)
            stalled += capped
            del approx, block, u, v
    if total:
        _log.debug("godec: %d windows, %.2f mean and %d max iterations, %d capped",
                   len(grid), total / len(grid), most, stalled)
    if stalled:
        _log.warning("%d of %d patches hit the iteration cap before converging",
                     stalled, len(grid))
    mean = hadamard_divide(acc, grid.coverage)
    if not leverage:
        return grid, mean, None, None
    return grid, mean, row_lev.reshape(len(grid), -1), col_lev.reshape(len(grid), -1)


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
