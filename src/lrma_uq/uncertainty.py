"""Closed-form uncertainty of sliding-window low-rank fits: the per-voxel
variance of the window average under the leverage-split model
(`split_variance`, the one route `denoise_with_uq` takes), the
shared-footprint correlation of two windows, and the aggregation of
per-patch variances under a whole-patch correlation rule."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .cube import HsiCube
from .windows import PatchGrid, _scatter_blocks

Origin = tuple[int, int]

_MODES = ("overlap", "independent", "full")


@dataclass(frozen=True)
class CorrelationRule:
    """Correlation model for two windows' estimates of a shared voxel.

    overlap     -- fraction of patch-matrix entries the windows share (default)
    independent -- zero for distinct windows (lower aggregation bound)
    full        -- one for every window pair (upper aggregation bound)
    A window is always perfectly correlated with itself, in every mode.

    The rule correlates whole-patch stds: `correlation` and
    `aggregate_variance` apply its value to the whole per-window std. The
    pipeline does not use it. It always takes the leverage split
    (`split_variance`), which correlates the spatial (row-leverage) part of
    the error by the overlap value and the spectral (column-leverage) part
    fully, and which lies between the independent and full bounds.
    """

    mode: str = "overlap"

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")

    def correlation(self, origin_p: Origin, origin_q: Origin, patch_side: int) -> float:
        if tuple(origin_p) == tuple(origin_q):
            return 1.0
        if self.mode == "independent":
            return 0.0
        if self.mode == "full":
            return 1.0
        return overlap_ratio(origin_p, origin_q, patch_side)


def overlap_ratio(origin_p: Origin, origin_q: Origin, patch_side: int) -> float:
    """Fraction of patch-matrix entries shared by two same-sized windows.

    Windows span all bands, so the band axis cancels and the fraction equals
    shared spatial pixels over pixels per window. Symmetric, translation
    invariant, 1.0 for identical origins, 0.0 for disjoint footprints.
    """
    if patch_side < 1:
        raise ValueError(f"patch_side must be >= 1, got {patch_side}")
    dr = abs(origin_p[0] - origin_q[0])
    dc = abs(origin_p[1] - origin_q[1])
    if dr >= patch_side or dc >= patch_side:
        return 0.0
    return ((patch_side - dr) * (patch_side - dc)) / float(patch_side * patch_side)


def _runs(vals: np.ndarray) -> Iterable[tuple[int, int, int]]:
    """Contiguous runs of equal value: yields (start, stop, value)."""
    vals = vals.tolist()  # Python ints compare far faster than numpy scalars
    b = 0
    for k in range(1, len(vals) + 1):
        if k == len(vals) or vals[k] != vals[b]:
            yield b, k, vals[b]
            b = k


def _add_cross_terms(num: np.ndarray, stds: np.ndarray, grid: PatchGrid) -> None:
    """Accumulate 2 * corr * sigma_p * sigma_q over unordered window pairs.

    Pairs are grouped by their relative origin offset; within a group the
    shared region is a fixed slice of both patches and the correlation is a
    single constant, so the whole group multiplies and scatters at once.
    """
    jside = grid.config.patch_side
    ro, co = grid.row_origins, grid.col_origins
    nr, nc = ro.size, co.size
    inv_area = 1.0 / (jside * jside)
    # Origins strictly increase, so the smallest spacing between origins d
    # apart grows with d: only column offsets |dj| < reach can overlap.
    reach = next((d for d in range(1, nc) if int((co[d:] - co[:nc - d]).min()) >= jside), nc)
    scratch = None  # one product buffer reused by every offset group
    for di in range(nr):
        drs = ro[di:] - ro[:nr - di]
        if di and int(drs.min()) >= jside:
            break
        for dj in range(1 - reach, reach):
            if di == 0 and dj <= 0:
                continue  # count each unordered pair once
            pj0 = max(0, -dj)
            pj1 = nc - max(0, dj)
            dcs = co[pj0 + dj:pj1 + dj] - co[pj0:pj1]
            for ib, ie, dr in _runs(drs):
                if dr >= jside:
                    continue
                h = jside - dr
                for jb, je, dc in _runs(dcs):
                    adc = abs(dc)
                    if adc >= jside:
                        continue
                    w = jside - adc
                    scale = 2.0 * ((jside - dr) * (jside - adc)) * inv_area
                    pi = slice(ib, ie)
                    qi = slice(ib + di, ie + di)
                    pj = slice(pj0 + jb, pj0 + je)
                    qj = slice(pj0 + jb + dj, pj0 + je + dj)
                    pr, qr = slice(dr, jside), slice(0, h)
                    if dc >= 0:
                        pc, qc = slice(adc, jside), slice(0, w)
                    else:
                        pc, qc = slice(0, w), slice(adc, jside)
                    if scratch is None:
                        scratch = np.empty_like(stds)
                    blocks = scratch[:ie - ib, :je - jb, :h, :w, :]
                    np.multiply(
                        stds[pi, pj, pr, pc, :], stds[qi, qj, qr, qc, :], out=blocks
                    )
                    blocks *= scale
                    dest_rows = ro[qi]
                    dest_cols = co[qj] if dc >= 0 else co[pj]
                    _scatter_blocks(num, blocks, dest_rows, dest_cols)


def aggregate_variance(
    patch_vars: np.ndarray, grid: PatchGrid, rule: CorrelationRule = CorrelationRule()
) -> HsiCube:
    """Combine per-patch variances into the variance of the averaged cube.

    Each voxel's output is the mean of the covering windows' estimates, so
    its variance is (1/phi^2) * [sum of per-window variances + 2 * sum over
    unordered window pairs of corr * sigma_p * sigma_q], phi being the
    cover count. The pair correlation is set by `rule` and applies to the
    whole per-patch std sigma_p. The pipeline never calls this: it always
    takes the leverage split (`split_variance`).

    patch_vars is a (len(grid.origins), J, J, P) array of non-negative
    variance patches in grid.origins order. It is copied, never modified.
    """
    jside = grid.config.patch_side
    m, n, p = grid.dims
    ro, co = grid.row_origins, grid.col_origins
    stack = np.array(patch_vars, dtype=np.float64)  # consumed as scratch below
    expected = (ro.size * co.size, jside, jside, p)
    if stack.shape != expected:
        raise ValueError(
            f"variance patch array shape {stack.shape} does not match {expected}"
        )
    if stack.min() < 0:
        raise ValueError("negative input variance")
    stack = stack.reshape(ro.size, co.size, jside, jside, p)
    num = np.zeros((m, n, p), dtype=np.float64)
    if rule.mode == "full":
        np.sqrt(stack, out=stack)
        _scatter_blocks(num, stack, ro, co)
        np.square(num, out=num)
    else:
        _scatter_blocks(num, stack, ro, co)
        if rule.mode == "overlap":
            _add_cross_terms(num, np.sqrt(stack, out=stack), grid)
    np.divide(num, grid.coverage.data, out=num)
    np.divide(num, grid.coverage.data, out=num)
    return HsiCube(num, copy=False)


def split_variance(
    row_lev: np.ndarray, col_lev: np.ndarray, grid: PatchGrid, sigma0: float
) -> HsiCube:
    """Variance of the window average under the leverage-split model.

    To first order a window's error at entry (u, v) is
    (P_U E + E P_V - P_U E P_V)(u, v). The E P_V part draws only on the
    noise at the voxel's own pixel, which every covering window sees, so it
    is taken as fully correlated across windows; only the spatial part
    P_U E is correlated by the shared-footprint fraction rho_pq. For a voxel
    covered by phi windows with row leverages lu_p and column leverages lv_p:

        var = sigma0^2 / phi^2 * [sum_{p,q} rho_pq sqrt(lu_p lu_q)
                                  + (sum_p sqrt(lv_p))^2]

    The first term is the overlap aggregation of sigma0^2 * lu (as in
    `aggregate_variance`) on a one-band plane, broadcast over the bands. In
    the second, sqrt(lv_p) is constant over window p's pixels, so the sum
    over covering windows is a box sum over window origins that separates
    by axis: two products with the pixel-in-window indicator matrices of the
    row and column origins. With one window per voxel this is
    sigma0^2 * (lu + lv).

    row_lev is (len(grid), J*J) and col_lev is (len(grid), P), both in
    grid.origins order.
    """
    jside = grid.config.patch_side
    m, n, p = grid.dims
    count = len(grid)
    if row_lev.shape != (count, jside * jside) or col_lev.shape != (count, p):
        raise ValueError(
            f"leverage shapes {row_lev.shape}, {col_lev.shape} do not match "
            f"({count}, {jside * jside}), ({count}, {p})"
        )
    s2 = sigma0 * sigma0
    ro, co = grid.row_origins, grid.col_origins
    spatial_var = (s2 * row_lev).reshape(ro.size, co.size, jside, jside, 1)
    spatial = np.zeros((m, n, 1), dtype=np.float64)
    _scatter_blocks(spatial, spatial_var, ro, co)
    _add_cross_terms(spatial, np.sqrt(spatial_var, out=spatial_var), grid)
    del spatial_var  # free the window stack before the cube-sized sum below
    roots = np.sqrt(s2 * col_lev).reshape(ro.size, co.size * p)
    by_row = (_cover_indicator(m, ro, jside) @ roots).reshape(m, co.size, p)
    out = np.matmul(_cover_indicator(n, co, jside), by_row)
    np.square(out, out=out)
    out += spatial
    np.divide(out, grid.coverage.data, out=out)
    np.divide(out, grid.coverage.data, out=out)
    return HsiCube(out, copy=False)


def _cover_indicator(extent: int, origins: np.ndarray, patch_side: int) -> np.ndarray:
    """(extent, len(origins)) matrix: 1 where the pixel lies in the window."""
    pixels = np.arange(extent)[:, None]
    return ((origins <= pixels) & (pixels < origins + patch_side)).astype(np.float64)
