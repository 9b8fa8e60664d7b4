"""Brute-force oracles and input layouts shared by several test files, and
the factor-error oracle of acceptance criterion 2."""

import csv
import logging
from typing import Sequence

import numpy as np

from lrma_uq import HsiCube, LowRankFactors

logger = logging.getLogger(__name__)


def covering_origins(grid, row, col):
    """Origins of all windows of `grid` containing spatial pixel (row, col),
    in grid.origins order, by checking every window."""
    j = grid.config.patch_side
    return [(r, c) for r, c in grid.origins if r <= row < r + j and c <= col < c + j]


def other_layouts(x: np.ndarray) -> dict:
    """The values of C-ordered `x` as cubes of three other memory layouts:
    Fortran-ordered, rows and columns swapped in memory, and the
    band-sequential view that `read_cube` once returned."""
    swapped = np.ascontiguousarray(x.transpose(1, 0, 2)).transpose(1, 0, 2)
    bsq = np.moveaxis(np.ascontiguousarray(np.moveaxis(x, 2, 0)), 0, 2)
    return {
        "fortran": HsiCube(np.asfortranarray(x)),
        "axis-swapped": HsiCube(swapped, copy=False),
        "bsq-view": HsiCube(bsq, copy=False),
    }


def read_report_csv(path: str) -> tuple[list[str], list[list[float]]]:
    """Parse back a report CSV: (header, numeric rows)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"empty CSV: {path}") from None
        rows = [[float(tok) for tok in row] for row in reader]
    return header, rows


def balanced(f: LowRankFactors) -> tuple[np.ndarray, np.ndarray]:
    """The balanced split x = u * sqrt(s), y = v * sqrt(s) of a factorization.

    x @ y.T = f.matrix() and x.T @ x = y.T @ y = diag(s); factor estimation
    errors are measured in this normal form because it makes their row
    covariance isotropic per singular direction.
    """
    root = np.sqrt(f.s)
    return f.u * root, f.v * root


def procrustes_rectify(
    x_hat: np.ndarray,
    y_hat: np.ndarray,
    x_ref: np.ndarray,
    y_ref: np.ndarray,
) -> np.ndarray:
    """Orthogonal matrix aligning estimated factors with reference factors.

    Returns the r x r orthogonal R minimizing
    ||x_hat R - x_ref||_F^2 + ||y_hat R - y_ref||_F^2,
    computed from the SVD of x_hat.T @ x_ref + y_hat.T @ y_ref as U @ V.T.
    Factorizations are only identified up to such a rotation, so estimation
    error is measured after applying R.
    """
    x_hat = np.asarray(x_hat, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    x_ref = np.asarray(x_ref, dtype=np.float64)
    y_ref = np.asarray(y_ref, dtype=np.float64)
    if x_hat.shape != x_ref.shape or y_hat.shape != y_ref.shape:
        raise ValueError("factor shapes must match their references")
    if x_hat.shape[1] != y_hat.shape[1]:
        raise ValueError(
            f"x and y must share the factor rank, got {x_hat.shape[1]} and {y_hat.shape[1]}"
        )
    cross = x_hat.T @ x_ref + y_hat.T @ y_ref
    if not cross.any():
        # Degenerate alignment problem: every orthogonal matrix attains the
        # same objective, so fall back to the identity.
        logger.warning("alignment cross-product is exactly zero; returning identity")
        return np.eye(cross.shape[0])
    u, _, vt = np.linalg.svd(cross)
    return u @ vt


def factor_error_samples(
    truth: LowRankFactors,
    trials: Sequence[LowRankFactors],
) -> tuple[np.ndarray, np.ndarray]:
    """Empirical row covariances of rectified factor estimation errors.

    For each trial factorization, finds the orthogonal rectification R
    aligning its balanced factors (x, y) with the truth's, then stacks the
    rows of (x_hat @ R - x_ref) across trials, and likewise for y. Returns
    the centered empirical r x r covariance of the stacked x-error rows and
    of the stacked y-error rows. Under small additive white noise of scale
    sigma0 both covariances approach sigma0^2 * diag(1/s) where s are the
    truth's singular values.
    """
    if len(trials) < 2:
        raise ValueError(f"need at least 2 trial factorizations, got {len(trials)}")
    x_ref, y_ref = balanced(truth)
    rank = truth.rank
    x_rows = np.empty((len(trials) * x_ref.shape[0], rank), dtype=np.float64)
    y_rows = np.empty((len(trials) * y_ref.shape[0], rank), dtype=np.float64)
    for i, trial in enumerate(trials):
        if trial.u.shape != truth.u.shape or trial.v.shape != truth.v.shape:
            raise ValueError("all trial factorizations must match the truth's shape")
        x_hat, y_hat = balanced(trial)
        r = procrustes_rectify(x_hat, y_hat, x_ref, y_ref)
        x_rows[i * x_ref.shape[0]:(i + 1) * x_ref.shape[0]] = x_hat @ r - x_ref
        y_rows[i * y_ref.shape[0]:(i + 1) * y_ref.shape[0]] = y_hat @ r - y_ref

    def _cov(rows: np.ndarray) -> np.ndarray:
        centered = rows - rows.mean(axis=0)
        return centered.T @ centered / rows.shape[0]

    return _cov(x_rows), _cov(y_rows)
