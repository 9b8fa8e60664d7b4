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
from .lowrank import LowRankFactors, godec, truncated_svd_batch
from .uncertainty import aggregate_variance
from .windows import WindowConfig, enumerate_patches, patch_to_matrix

_log = logging.getLogger(__name__)

# Byte budget of one group of origin rows once gathered: rows join a group
# while it stays within the budget, and every group holds at least one row.
# A group pays the fixed cost of its numpy calls once, not once per row; a
# row over the budget is a group of its own, so large scenes keep one row
# in flight per worker. Groups are not split to feed more workers: on
# 40x40x16 (window 8/4/3) with two workers, two groups of the nine rows
# denoised slower than one.
_GROUP_BYTES = 1 << 20


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a denoising run needs besides the cube itself.

    The window's sparse budget alone picks the fit: zero runs the batched
    truncated SVD, a positive budget GoDec. sigma0 is the global noise std
    used only by the variance path. threads is the number of workers that
    fit groups of origin rows of windows concurrently, the calling thread
    being one of them (1 = serial, the default here; the CLI defaults to
    the usable cores). The fit holds numpy's OpenBLAS at one thread for
    every worker count (see `blas._one_thread`), so the workers never
    oversubscribe the cores or change the output bytes.
    """

    window: WindowConfig = WindowConfig()
    sigma0: float = 0.0
    max_iter: int = 100
    threads: int = 1

    def __post_init__(self) -> None:
        if not 0 <= self.sigma0 < np.inf:
            raise ValueError(f"sigma0 must be finite and >= 0, got {self.sigma0}")
        _require_counts(max_iter=self.max_iter, threads=self.threads)


def _fit_group(group: np.ndarray, cfg: PipelineConfig) -> tuple:
    """Rank-r fit of a group of consecutive origin rows of windows.

    `group` is the gathered, C-contiguous (rows, windows, J, J, P) group;
    each window is a (J*J) x P matrix, pixels in row-major order by bands.
    One batched truncated SVD fits every window of the group. A positive
    sparse budget then refines each window with GoDec, started from that
    SVD. One batched matmul per row rebuilds each approximation
    u diag(s) v^T over the row's `patch_to_matrix` view. Returns the group
    as (windows, J, J, P), the u (windows, J*J, r) and v (windows, P, r)
    factors, the sum and the maximum of the windows' GoDec iteration
    counts (0 for the truncated SVD) and the count of windows that hit
    the GoDec iteration cap.
    """
    w = cfg.window
    rows, n, j, _, p = group.shape
    mats = group.reshape(rows * n, j * j, p)
    k = w.sparse_count(j * j * p)
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
    us = (u * s[:, None, :]).reshape(rows, n, j * j, w.rank)
    vt = np.swapaxes(v, 1, 2).reshape(rows, n, w.rank, p)
    for row, us_row, vt_row in zip(group, us, vt):
        np.matmul(us_row, vt_row, out=patch_to_matrix(row))
    return group.reshape(rows * n, j, j, p), u, v, total, most, stalled


def _ordered(fn, count: int, workers: int):
    """Yield fn(0), ..., fn(count - 1) in order, computed by `workers` threads.

    Groups of rows go in batches of `workers`: the pool fits all but the
    first group of a batch while the calling thread fits the first, and
    every pool result is read in order, so a worker's exception is raised
    here. Each future is popped before its group is yielded, so no group
    stays alive here once the consumer drops it.

    Keep the caller a worker: a plain pool of `workers` threads with the
    caller only consuming holds one more group in flight, which raised peak
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

    Windows are fitted in groups of consecutive whole origin rows, as many
    as fit in `_GROUP_BYTES` once gathered and at least one, with numpy's
    OpenBLAS held at one thread; the workers only fit, and this thread
    writes every output. As each group arrives its windows are added one
    at a time through `scatter_add_patch`, in grid.origins (sorted-origin)
    order, so no stack of all windows is ever held and every voxel's sum
    runs in the same order for any worker count or group size. Then the
    group's leverages are formed from its factors in that order, or None
    when not asked for.
    """
    grid = enumerate_patches(cube.dims, cfg.window)
    jside = cfg.window.patch_side
    ro, co = grid.row_origins, grid.col_origins
    # (row origin, col origin, J, J, P): every window position, as a view.
    windows = np.moveaxis(sliding_window_view(cube.data, (jside, jside), axis=(0, 1)), 2, 4)
    row_bytes = co.size * jside * jside * cube.bands * cube.data.itemsize
    per = max(1, _GROUP_BYTES // row_bytes)
    groups = [ro[i:i + per, None] for i in range(0, ro.size, per)]
    if leverage:
        row_lev = np.empty((len(grid), jside * jside))
        col_lev = np.empty((len(grid), cube.bands))

    acc = HsiCube.zeros(cube.dims)
    total = most = stalled = 0
    done = 0
    with blas._one_thread():
        fits = _ordered(lambda g: _fit_group(windows[groups[g], co], cfg), len(groups), cfg.threads)
        for _ in groups:
            # next() rather than zip(groups, fits), whose reused result
            # tuple would keep the previous group alive while the next is
            # fitted; `block` is deleted too, as it is a view of the group.
            approx, u, v, group_total, group_most, capped = next(fits)
            here = slice(done, done + len(approx))
            for (r, c), block in zip(grid.origins[here], approx):
                scatter_add_patch(acc, VoxelIndex(r, c, 0), block)
            if leverage:
                np.einsum("nur,nur->nu", u, u, out=row_lev[here])
                np.einsum("nvr,nvr->nv", v, v, out=col_lev[here])
            done = here.stop
            total += group_total
            most = max(most, group_most)
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
