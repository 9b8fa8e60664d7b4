"""Sliding-window geometry: patch enumeration, coverage counts, the 3D->2D
patch reshaping, and mean aggregation of overlapping denoised patches."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .cube import (HsiCube, VoxelIndex, _require_counts, _require_nonnegative, hadamard_divide,
                   scatter_add_patch)

Origin = tuple[int, int]


@dataclass(frozen=True)
class WindowConfig:
    """Sliding-window parameters.

    patch_side  -- spatial side length of the square window (default 20)
    step        -- stride between window origins (default 4)
    rank        -- target rank of the per-patch low-rank fit (default 7)
    sparse_card -- sparse-entry budget of the fit: an absolute count
                   (int >= 1), a fraction of patch entries (0 < float < 1),
                   or 0 (default), which fits by batched TSVD, not GoDec
    """

    patch_side: int = 20
    step: int = 4
    rank: int = 7
    sparse_card: float = 0

    def __post_init__(self) -> None:
        _require_counts(patch_side=self.patch_side, step=self.step, rank=self.rank)
        if self.step > self.patch_side:
            raise ValueError(f"step must be <= patch_side {self.patch_side}, got {self.step}")
        _require_nonnegative(sparse_card=self.sparse_card)
        if self.sparse_card >= 1 and self.sparse_card != int(self.sparse_card):
            raise ValueError(f"sparse_card >= 1 must be a whole count, got {self.sparse_card}")

    def validate_for(self, dims: tuple[int, int, int]) -> None:
        """Check the window against concrete cube dims."""
        m, n, p = dims
        if self.patch_side > min(m, n):
            raise ValueError(
                f"patch_side {self.patch_side} exceeds spatial dims {m}x{n}"
            )
        if self.rank > min(self.patch_side * self.patch_side, p):
            raise ValueError(
                f"rank {self.rank} exceeds min(patch_side^2, bands) = "
                f"{min(self.patch_side ** 2, p)}"
            )

    def sparse_count(self, n_entries: int) -> int:
        """Resolve sparse_card to an absolute entry count for a patch matrix."""
        if self.sparse_card == 0:
            return 0
        if 0 < self.sparse_card < 1:
            return int(round(self.sparse_card * n_entries))
        return int(self.sparse_card)


def _axis_origins(extent: int, patch_side: int, step: int) -> np.ndarray:
    # Strided origins 0, s, 2s, ... plus a clamped final origin at extent-J
    # whenever the stride does not land there, so the border is always covered.
    last = extent - patch_side
    origins = set(range(0, last + 1, step))
    origins.add(last)
    return np.array(sorted(origins), dtype=np.int64)


@dataclass
class PatchGrid:
    """The enumerated window set and its per-voxel coverage counts.

    origins are lexicographically sorted (row, col) pairs forming the full
    cross product of per-axis origin lists; coverage holds, for every voxel,
    the number of windows whose footprint contains it (>= 1 everywhere), as
    a read-only view that repeats one M x N plane over the bands.
    """

    dims: tuple[int, int, int]
    config: WindowConfig
    origins: list[Origin]
    coverage: HsiCube
    row_origins: np.ndarray
    col_origins: np.ndarray

    def __len__(self) -> int:
        return len(self.origins)


def _cover_indicator(extent: int, origins: np.ndarray, patch_side: int) -> np.ndarray:
    """(extent, len(origins)) matrix: 1 where the pixel lies in the window."""
    pixels = np.arange(extent)[:, None]
    return ((origins <= pixels) & (pixels < origins + patch_side)).astype(np.float64)


def enumerate_patches(dims: tuple[int, int, int], config: WindowConfig) -> PatchGrid:
    """Enumerate all sliding-window origins over `dims` and count coverage."""
    config.validate_for(dims)
    m, n, p = dims
    j = config.patch_side
    row_origins = _axis_origins(m, j, config.step)
    col_origins = _axis_origins(n, j, config.step)
    origins = [(int(r), int(c)) for r in row_origins for c in col_origins]

    # Coverage factorizes over axes because the origin set is a cross product.
    row_counts = _cover_indicator(m, row_origins, j).sum(axis=1)
    col_counts = _cover_indicator(n, col_origins, j).sum(axis=1)
    # Every band shares the plane: a read-only view with band stride 0.
    plane = np.outer(row_counts, col_counts)
    coverage = HsiCube(np.broadcast_to(plane[:, :, None], (m, n, p)), copy=False)

    return PatchGrid(
        dims=dims,
        config=config,
        origins=origins,
        coverage=coverage,
        row_origins=row_origins,
        col_origins=col_origins,
    )


def patch_to_matrix(patch: np.ndarray) -> np.ndarray:
    """Reshape (..., J, J, P) full-band patches into (..., J*J, P) matrices.

    Row u is spatial pixel u in row-major order; column v is band v. A
    C-contiguous patch gives a view, so writes to the matrix reach it; a
    patch whose (J, J) axes cannot merge in place (a Fortran-ordered or
    axis-swapped source, say) gives a copy, and writes to it are lost.
    """
    patch = np.asarray(patch)
    if patch.ndim < 3:
        raise ValueError(f"patch must be at least 3-D, got ndim={patch.ndim}")
    *lead, h, w, p = patch.shape
    return patch.reshape(*lead, h * w, p)


def aggregate_mean(
    denoised_patches: Iterable[tuple[Origin, np.ndarray]] | Sequence[tuple[Origin, np.ndarray]],
    grid: PatchGrid,
) -> HsiCube:
    """Average overlapping denoised patches into a full cube.

    Patches are added one at a time through `scatter_add_patch`, in
    grid.origins (sorted-origin) order whatever the order given, and the sum
    is divided element-wise by the coverage counts, so every voxel is the
    mean of the windows covering it. The patch set must match the grid.
    """
    by_origin = {origin: patch for origin, patch in denoised_patches}
    missing = [o for o in grid.origins if o not in by_origin]
    if missing:
        raise ValueError(f"missing denoised patch for origins {missing[:5]}")
    if len(by_origin) != len(grid.origins):
        extra = set(by_origin) - set(grid.origins)
        raise ValueError(f"patches supplied for origins not in grid: {sorted(extra)[:5]}")

    shape = (grid.config.patch_side, grid.config.patch_side, grid.dims[2])
    misshapen = [o for o, patch in by_origin.items() if np.shape(patch) != shape]
    if misshapen:
        raise ValueError(f"patches at origins {misshapen[:5]} are not of shape {shape}")

    acc = HsiCube.zeros(grid.dims)
    for r, c in grid.origins:
        scatter_add_patch(acc, VoxelIndex(r, c, 0), by_origin[(r, c)])
    return hadamard_divide(acc, grid.coverage)
