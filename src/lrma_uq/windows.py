"""Sliding-window geometry: patch enumeration, coverage counts, the 3D->2D
patch reshaping, and mean aggregation of overlapping denoised patches."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .cube import HsiCube, hadamard_divide

Origin = tuple[int, int]


@dataclass(frozen=True)
class WindowConfig:
    """Sliding-window parameters.

    patch_side  -- spatial side length of the square window (default 20)
    step        -- stride between window origins (default 4)
    rank        -- target rank of the per-patch low-rank fit (default 7)
    sparse_card -- sparse-entry budget for the solver: an absolute count
                   (int >= 1), a fraction of patch entries (0 < float < 1),
                   or 0 to disable the sparse term (default)
    """

    patch_side: int = 20
    step: int = 4
    rank: int = 7
    sparse_card: float = 0

    def __post_init__(self) -> None:
        if self.patch_side < 1:
            raise ValueError(f"patch_side must be >= 1, got {self.patch_side}")
        if not 1 <= self.step <= self.patch_side:
            raise ValueError(
                f"step must satisfy 1 <= step <= patch_side, got step={self.step}"
            )
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if not 0 <= self.sparse_card < np.inf:
            raise ValueError(f"sparse_card must be finite and >= 0, got {self.sparse_card}")

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

    def covering_origins(self, row: int, col: int) -> list[Origin]:
        """Origins of all windows containing spatial pixel (row, col).

        Derived from arithmetic on the per-axis origin lists rather than a
        stored per-voxel table.
        """
        j = self.config.patch_side
        rows = self.row_origins[(self.row_origins <= row) & (row < self.row_origins + j)]
        cols = self.col_origins[(self.col_origins <= col) & (col < self.col_origins + j)]
        return [(int(r), int(c)) for r in rows for c in cols]


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
    C-contiguous patch gives a view, so writes to the matrix reach it.
    """
    patch = np.asarray(patch)
    if patch.ndim < 3:
        raise ValueError(f"patch must be at least 3-D, got ndim={patch.ndim}")
    *lead, h, w, p = patch.shape
    return patch.reshape(*lead, h * w, p)


def _uniform_step(starts: np.ndarray) -> int | None:
    """The common spacing of `starts`, or None if the spacing varies."""
    if starts.size < 2:
        return None
    s = starts.tolist()  # a handful of origins: Python beats array calls here
    d = s[1] - s[0]
    return d if all(b - a == d for a, b in zip(s, s[1:])) else None


def _scatter_blocks(acc: np.ndarray, blocks: np.ndarray, row: int,
                    col_starts: np.ndarray) -> None:
    """acc[row:row+h, c:c+w, :] += blocks[j] for each column start c.

    When starts are uniformly spaced, they are thinned to every g-th start
    (g = ceil(block width / spacing)) so the strided destination views are
    disjoint and a single in-place add per thinned group is safe. The views
    are built straight on acc's buffer, so acc must be C-contiguous for
    them; non-uniform spacings and any other acc fall back to a per-block
    loop.
    """
    nj, h, w, _ = blocks.shape
    sc = _uniform_step(col_starts)
    gc = 1 if nj == 1 else (None if sc is None else -(-w // sc))
    if gc is None or not acc.flags.c_contiguous:
        for j in range(nj):
            c = int(col_starts[j])
            acc[row:row + h, c:c + w, :] += blocks[j]
        return
    es0, es1, es2 = acc.strides
    for oj in range(min(gc, nj)):
        sub = blocks[oj::gc]
        view = np.ndarray(
            sub.shape, acc.dtype, buffer=acc,
            offset=int(row) * es0 + int(col_starts[oj]) * es1,
            strides=((sc * gc * es1) if sub.shape[0] > 1 else 0, es0, es1, es2),
        )
        view += sub


def aggregate_mean(
    denoised_patches: Iterable[tuple[Origin, np.ndarray]] | Sequence[tuple[Origin, np.ndarray]],
    grid: PatchGrid,
) -> HsiCube:
    """Average overlapping denoised patches into a full cube.

    Patches are scatter-added one origin row at a time, in canonical
    (sorted-origin) order, and the sum is divided element-wise by the
    coverage counts, so every voxel is the mean of the windows covering it.
    The patch set must match the grid.
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

    acc = np.zeros(grid.dims, dtype=np.float64)
    for r in grid.row_origins:
        row = np.stack([by_origin[(int(r), int(c))] for c in grid.col_origins])
        _scatter_blocks(acc, row.astype(np.float64, copy=False), int(r), grid.col_origins)
    return hadamard_divide(HsiCube(acc, copy=False), grid.coverage)
