"""Dense hyperspectral cube type and elementary whole-cube arithmetic.

A cube holds M x N spatial pixels by P spectral bands as float64. Indexing
is always (row, col, band). Patches are full-band sub-cubes, extracted and
re-deposited by the operations below; every other module builds on these.
`scatter_add_patch` is the one scatter path: the pipeline and
`aggregate_mean` add every window into their accumulator through it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


def _require_counts(minimum: int = 1, /, **counts) -> None:
    """Check that every named count is an integer >= minimum (numpy
    integers pass), so no float reaches numpy slicing, `range` or a draw."""
    for name, value in counts.items():
        if not isinstance(value, (int, np.integer)) or value < minimum:
            raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


class VoxelIndex(NamedTuple):
    """Zero-based (row, col, band) coordinate into a cube."""

    row: int
    col: int
    band: int


class HsiCube:
    """Dense M x N x P cube of float64 values.

    The wrapped array is stored with shape (M, N, P). Inputs of any real
    dtype are widened to float64 on ingest, and copy=False wraps a float64
    array without copying it; non-finite values are rejected.
    Treat a cube as immutable once shared: only `scatter_add_patch` and
    `hadamard_divide(..., out=)` mutate, and only cubes that the caller owns
    exclusively. An accumulator may wrap an array of any memory layout (C,
    Fortran or strided).
    """

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray, copy: bool = True) -> None:
        arr = np.array(data, dtype=np.float64) if copy else np.asarray(data, dtype=np.float64)
        if arr.ndim != 3:
            raise ValueError(f"cube data must be 3-D (rows, cols, bands), got ndim={arr.ndim}")
        if min(arr.shape) < 1:
            raise ValueError(f"cube dims must all be positive, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("cube data contains non-finite values")
        self.data = arr

    @classmethod
    def zeros(cls, dims: tuple[int, int, int]) -> "HsiCube":
        m, n, p = dims
        if m < 1 or n < 1 or p < 1:
            raise ValueError(f"cube dims must all be positive, got {dims}")
        cube = cls.__new__(cls)
        cube.data = np.zeros((m, n, p), dtype=np.float64)
        return cube

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape  # type: ignore[return-value]

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def bands(self) -> int:
        return self.data.shape[2]

    def copy(self) -> "HsiCube":
        return HsiCube(self.data, copy=True)

    def __repr__(self) -> str:
        m, n, p = self.dims
        return f"HsiCube({m}x{n}x{p})"


def hadamard_divide(num: HsiCube, den: HsiCube, *, out: HsiCube | None = None) -> HsiCube:
    """Element-wise quotient of two cubes of identical dims.

    The denominator must be strictly positive everywhere; a zero or negative
    entry means some voxel was covered by no patch, which is a window-geometry
    bug upstream and is reported as such, before anything is written. The
    quotient goes to a new cube, or into `out` (which may be `num`) and
    `out` is returned; either way its bytes are the same.
    """
    if num.dims != den.dims:
        raise ValueError(f"dimension mismatch: {num.dims} vs {den.dims}")
    if out is not None and out.dims != num.dims:
        raise ValueError(f"out dimension mismatch: {out.dims} vs {num.dims}")
    if den.data.min() <= 0.0:
        bad = int(np.count_nonzero(den.data <= 0.0))
        raise ValueError(
            f"denominator has {bad} non-positive entries (voxels covered by no patch)"
        )
    if out is None:
        return HsiCube(num.data / den.data, copy=False)
    np.divide(num.data, den.data, out=out.data)
    return out


def _check_patch_bounds(dims: tuple[int, int, int], origin: VoxelIndex,
                        size: tuple[int, int, int]) -> None:
    m, n, p = dims
    r, c, b = origin
    h, w, d = size
    if h < 1 or w < 1 or d < 1:
        raise ValueError(f"patch size must be positive, got {size}")
    if r < 0 or c < 0 or b < 0:
        raise ValueError(f"patch origin must be non-negative, got {tuple(origin)}")
    if r + h > m or c + w > n or b + d > p:
        raise ValueError(
            f"patch origin {tuple(origin)} + size {size} exceeds cube dims {dims}"
        )


def extract_patch(cube: HsiCube, origin: VoxelIndex, size: tuple[int, int, int]) -> np.ndarray:
    """Copy out the sub-cube of `size` anchored at `origin`.

    Patches are full-band: size[2] must equal the cube's band count.
    """
    if size[2] != cube.bands:
        raise ValueError(
            f"patches are full-band: size[2]={size[2]} must equal band count {cube.bands}"
        )
    _check_patch_bounds(cube.dims, origin, size)
    r, c, b = origin
    h, w, d = size
    return cube.data[r:r + h, c:c + w, b:b + d].copy()


def scatter_add_patch(acc: HsiCube, origin: VoxelIndex, patch: np.ndarray) -> None:
    """Add `patch` into `acc` in place under the footprint anchored at `origin`.

    Equivalent to zero-padding the patch to full cube size and adding, without
    materializing the padded cube. Entries outside the footprint are untouched.
    """
    patch = np.asarray(patch, dtype=np.float64)
    if patch.ndim != 3:
        raise ValueError(f"patch must be 3-D, got ndim={patch.ndim}")
    _check_patch_bounds(acc.dims, origin, patch.shape)  # type: ignore[arg-type]
    r, c, b = origin
    h, w, d = patch.shape
    acc.data[r:r + h, c:c + w, b:b + d] += patch
