"""Closed-form uncertainty of sliding-window low-rank fits: the per-voxel
variance of the window average under the leverage-split model
(`aggregate_variance`, the one route `denoise_with_uq` takes) and the
shared-footprint correlation of two windows, which factorises by axis."""

from __future__ import annotations

import numpy as np

from .cube import HsiCube, _require_nonnegative
from .windows import Origin, PatchGrid, _cover_indicator


def overlap_ratio(origin_p: Origin, origin_q: Origin, patch_side: int) -> float | np.ndarray:
    """Fraction of patch-matrix entries shared by two same-sized windows.

    Windows span all bands, so the band axis cancels and the fraction equals
    shared spatial pixels over pixels per window. Symmetric, translation
    invariant, 1.0 for identical origins, 0.0 for disjoint footprints.
    Origin coordinates may be integer arrays, which broadcast.
    """
    if patch_side < 1:
        raise ValueError(f"patch_side must be >= 1, got {patch_side}")
    shared = [np.maximum(patch_side - np.abs(np.subtract(a, b)), 0)
              for a, b in zip(origin_p, origin_q)]
    return (shared[0] * shared[1]) / float(patch_side * patch_side)


def _slots(cover: np.ndarray, origins: np.ndarray, patch_side: int) -> tuple:
    """Slot table of one axis from its (extent, origins) cover indicator: for
    each pixel, the indices of the a covering origins (padded by repeating
    the last one), the pixel's offset inside each, a 1/0 real-slot mask, and
    the (extent, a, a) overlap fractions of distinct slots along the axis."""
    count = cover.sum(axis=1).astype(np.int64)[:, None]
    slot = np.arange(int(count.max()))
    index = cover.argmax(axis=1)[:, None] + np.minimum(slot, count - 1)
    start = origins[index]
    offset = np.arange(cover.shape[0])[:, None] - start
    rho = overlap_ratio((start[:, :, None], 0), (start[:, None, :], 0), patch_side)
    rho[:, slot, slot] = 0.0  # a slot paired with itself is a p = q term
    return index, offset, (slot < count).astype(np.float64), rho


def _spatial_plane(lev: np.ndarray, s2: float, rows: tuple, cols: tuple) -> np.ndarray:
    """(M, N) plane of sum_{p,q} rho_pq sqrt(s2 lu_p * s2 lu_q) over covering
    windows, from the (rows, cols, J, J) row leverages and the axes' slots."""
    (r_idx, r_off, r_real, rho_r), (c_idx, c_off, c_real, rho_c) = rows, cols
    # (M, a, b, N): s2 * lu of row slot k, column slot l at (x, y); 0 on padding.
    var = lev[r_idx[:, :, None, None], np.ascontiguousarray(c_idx.T),
              r_off[:, :, None, None], np.ascontiguousarray(c_off.T)]
    var *= s2 * r_real[:, :, None, None]
    var *= c_real.T
    plane = var.sum(axis=(1, 2))  # the p = q terms, before any square root
    std = np.sqrt(var, out=var)
    for l in range(std.shape[2]):
        # Column slot l with itself (row slots k' != k), then with each later one, twice.
        rs_l = np.matmul(rho_r, std[:, :, l])
        plane += np.einsum("xky,xky->xy", std[:, :, l], rs_l)
        rs_l += std[:, :, l]  # rho_r is 1 at k' = k when the column slots differ
        for m in range(l + 1, std.shape[2]):
            plane += 2 * rho_c[:, l, m] * np.einsum("xky,xky->xy", std[:, :, m], rs_l)
    return plane


def aggregate_variance(
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

    The covering windows are the cross product of the a row origins and the
    b column origins covering the pixel, and rho = rho_r * rho_c with
    rho_r = (J - |drow|) / J, so the first term is the quadratic form
    vec(S)^T (R_x kron C_y) vec(S) of the a x b stds S = sqrt(sigma0^2 lu)
    of those windows at the pixel, on one plane broadcast over the bands.
    The second is a box sum of sqrt(lv_p) over window origins that separates
    by axis into two products with pixel-in-window indicator matrices. With
    one window per voxel this is sigma0^2 * (lu + lv).

    row_lev is (len(grid), J*J) and col_lev is (len(grid), P), both
    non-negative and in grid.origins order; sigma0 must be finite and >= 0.
    """
    _require_nonnegative(sigma0=sigma0)
    jside = grid.config.patch_side
    m, n, p = grid.dims
    count = len(grid)
    if row_lev.shape != (count, jside * jside) or col_lev.shape != (count, p):
        raise ValueError(
            f"leverage shapes {row_lev.shape}, {col_lev.shape} do not match "
            f"({count}, {jside * jside}), ({count}, {p})"
        )
    if row_lev.min() < 0 or col_lev.min() < 0:
        raise ValueError("negative leverage")
    s2 = sigma0 * sigma0
    ro, co = grid.row_origins, grid.col_origins
    cover_r, cover_c = _cover_indicator(m, ro, jside), _cover_indicator(n, co, jside)
    spatial = _spatial_plane(row_lev.reshape(ro.size, co.size, jside, jside), s2,
                             _slots(cover_r, ro, jside), _slots(cover_c, co, jside))
    roots = np.sqrt(s2 * col_lev).reshape(ro.size, co.size * p)
    by_row = (cover_r @ roots).reshape(m, co.size, p)
    out = np.matmul(cover_c, by_row)
    np.square(out, out=out)
    out += spatial[:, :, None]
    phi = grid.coverage.data[:, :, :1]
    np.divide(out, phi * phi, out=out)
    return HsiCube(out, copy=False)
