"""Closed-form uncertainty of sliding-window low-rank fits: the per-voxel
variance of the window average under the leverage-split model
(`aggregate_variance`, the one route `denoise_with_uq` takes) and the
shared-footprint correlation of two windows."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .cube import HsiCube
from .windows import Origin, PatchGrid, _cover_indicator, _scatter_blocks


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

    The first term aggregates sigma0^2 * lu by rho_pq on a one-band plane,
    broadcast over the bands. In the second, sqrt(lv_p) is constant over
    window p's pixels, so the sum over covering windows is a box sum over
    window origins that separates by axis: two products with the
    pixel-in-window indicator matrices of the row and column origins. With
    one window per voxel this is sigma0^2 * (lu + lv).

    row_lev is (len(grid), J*J) and col_lev is (len(grid), P), both
    non-negative and in grid.origins order.
    """
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
