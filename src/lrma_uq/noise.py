"""Synthetic low-rank cube generation and the two noise processes used by
the validation harness: additive white Gaussian noise and salt-and-pepper
impulse corruption, both reproducible from a 64-bit seed."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cube import HsiCube, _require_counts, _require_nonnegative

# Distinct key words per consumer so gaussian, impulse, and synthesis draws
# never share a counter stream even under the same user seed.
_STREAM_GAUSSIAN = 1
_STREAM_IMPULSE = 2
_STREAM_SYNTH = 3

_SEED_SPAN = 2 ** 64


@dataclass(frozen=True)
class NoiseSpec:
    """A corruption recipe: Gaussian std, impulse fraction, and a seed.

    sigma0 is in the units of the (typically [0, 1]-normalized) cube;
    impulse_ratio is the expected fraction of voxels replaced by 0/1
    extremes; seed fixes both processes bit-exactly.
    """

    sigma0: float
    impulse_ratio: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        _require_nonnegative(sigma0=self.sigma0)
        if not 0.0 <= self.impulse_ratio <= 1.0:
            raise ValueError(
                f"impulse_ratio must be in [0, 1], got {self.impulse_ratio}"
            )


def _generator(seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator keyed on (seed, stream).

    Draw order is fixed (whole-array calls in C order), so outputs are
    reproducible regardless of scheduling elsewhere in the pipeline.
    """
    key = np.array([seed % _SEED_SPAN, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def synth_lowrank_cube(dims: tuple[int, int, int], true_rank: int, seed: int) -> HsiCube:
    """Deterministic cube whose every full-band window has rank <= true_rank.

    Built as a constant 0.5 background plus true_rank - 1 separable
    (spatial map x spectrum) fluctuation components, scaled so all values
    stay inside [0.05, 0.95]. Any spatial window of the result permutes to
    a matrix of rank at most true_rank.
    """
    m, n, p = dims
    if min(m, n, p) < 1:
        raise ValueError(f"cube dims must all be positive, got {dims}")
    _require_counts(true_rank=true_rank)
    if true_rank > min(m * n, p):
        raise ValueError(
            f"true_rank must be in [1, {min(m * n, p)}] for dims {dims}, got {true_rank}"
        )
    data = np.full((m, n, p), 0.5, dtype=np.float64)
    k = true_rank - 1
    if k > 0:
        rng = _generator(seed, _STREAM_SYNTH)
        maps = rng.standard_normal((k, m, n))
        spectra = rng.standard_normal((k, p))
        fluct = np.einsum("kmn,kp->mnp", maps, spectra)
        peak = np.abs(fluct).max()
        if peak > 0:
            data += (0.45 / peak) * fluct
    return HsiCube(data, copy=False)


def add_gaussian(cube: HsiCube, sigma0: float, seed: int) -> HsiCube:
    """Element-wise i.i.d. zero-mean Gaussian corruption.

    Values are deliberately not clipped back into [0, 1]: clipping would
    truncate the noise distribution and bias any downstream variance model.
    """
    _require_nonnegative(sigma0=sigma0)
    if sigma0 == 0:
        return cube.copy()
    rng = _generator(seed, _STREAM_GAUSSIAN)
    noisy = cube.data + sigma0 * rng.standard_normal(cube.dims)
    return HsiCube(noisy, copy=False)


def add_impulse(cube: HsiCube, ratio: float, seed: int) -> HsiCube:
    """Replace a random fraction of voxels with 0 or 1, equiprobably.

    Each voxel is hit independently with probability `ratio` (so the actual
    corrupted count is binomial); untouched voxels keep their exact value.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError(f"ratio must be in [0, 1], got {ratio}")
    out = cube.copy()
    if ratio == 0:
        return out
    rng = _generator(seed, _STREAM_IMPULSE)
    hit = rng.random(cube.dims) < ratio
    salt = rng.random(cube.dims) < 0.5
    out.data[hit] = salt[hit].astype(np.float64)
    return out


def apply_noise(cube: HsiCube, spec: NoiseSpec, seed: int | None = None) -> HsiCube:
    """Apply the full recipe: Gaussian first, then impulse replacement.

    `seed` overrides spec.seed when given, which is how Monte Carlo trials
    re-key the same recipe per trial.
    """
    s = spec.seed if seed is None else seed
    out = add_gaussian(cube, spec.sigma0, s)
    if spec.impulse_ratio > 0:
        out = add_impulse(out, spec.impulse_ratio, s)
    return out
