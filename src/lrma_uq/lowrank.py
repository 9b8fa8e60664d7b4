"""Low-rank matrix fitting: the truncated SVD, one matrix or a batched
stack at a time, and an alternating low-rank plus sparse solver."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import blas
from .cube import _require_counts


@dataclass(frozen=True)
class LowRankFactors:
    """A rank-r factorization u @ diag(s) @ v.T of some K x L matrix.

    u (K, r) and v (L, r) have orthonormal columns and s holds the
    nonnegative singular values in descending order.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    @property
    def rank(self) -> int:
        return self.s.size

    def matrix(self) -> np.ndarray:
        return (self.u * self.s) @ self.v.T


@dataclass
class GodecResult:
    """Output of the alternating low-rank + sparse decomposition.

    low_rank + sparse approximates the input; factors holds the SVD factors
    of the final low-rank iterate; residual_history records the Frobenius
    norm of (input - low_rank - sparse) after every iteration.
    """

    low_rank: np.ndarray
    sparse: np.ndarray
    factors: LowRankFactors
    iterations: int
    converged: bool = True
    residual_history: list[float] = field(default_factory=list)


# A matrix whose r-th Gram eigenvalue is not above this fraction of the
# first (sigma_r / sigma_1 <= 1e-4, a zero Gram included) is refit with a
# full SVD: squaring the condition number leaves too few accurate digits in
# the weak directions.
_GRAM_FLOOR = 1e-8
# A Gram matrix with at least _TOP_R_FROM rows, and at least _ROWS_PER_PAIR
# rows per wanted eigenpair, finds its top r eigenpairs by MRRR on its
# tridiagonal form (`blas._top_eigh`); any other by a full eigh, which is as
# fast or faster there. The route's cost grows with r and eigh's does not.
# Per Gram (rank-r windows plus noise, OpenBLAS at one thread), the route
# took 0.65x eigh's time at P = 64, r = 7, and 0.40x at P = 224; 1.0x at
# P = 32, r = 7, and 1.8x at P = 16; at r = P/6 it took 0.83x (P = 64) to
# 1.02x (P = 224), at r = P/2 2.1x (P = 128).
_TOP_R_FROM = 32
_ROWS_PER_PAIR = 6


def _gram_fit(a: np.ndarray, rank: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-r factors u, s, v of every finite matrix in an (..., K, L) array.

    The top r eigenpairs of the Gram matrix on the smaller side (A^T A, or
    A A^T when K < L) give that side's singular vectors and s = sqrt(lambda);
    the other side is A v / s, and signs follow `truncated_svd`. Grams of
    at least _TOP_R_FROM rows, and _ROWS_PER_PAIR rows per pair, take only
    their top r eigenpairs, one matrix at a time, from LAPACK's dsytrd,
    dstemr (MRRR) and dormtr in numpy's OpenBLAS (`blas._top_eigh`); the
    Gram is overwritten there, and a matrix dstemr fails on is refit by
    eigh of its rebuilt Gram. Other Grams, and all of them when those
    routines are not found, take one batched eigh. A matrix
    whose Gram is zero or nearly rank-deficient (see _GRAM_FLOOR) is refit
    by the full SVD, one at a time.
    A matrix whose Gram has no finite trace (entries above about 1e154) is
    fitted scaled by the power of two that brings its largest |entry| into
    [0.5, 1), which is exact, and its s is scaled back; every other matrix
    takes the unscaled path.
    """
    wide = a.shape[-2] < a.shape[-1]
    t = a.swapaxes(-1, -2) if wide else a
    exp = None
    with np.errstate(over="ignore"):  # only a matrix flagged in `huge` overflows
        gram = t.swapaxes(-1, -2) @ t
        huge = ~np.isfinite(gram.trace(0, -2, -1))
    if np.count_nonzero(huge):
        exp = np.frexp(np.abs(a[huge]).max(axis=(-2, -1)))[1][:, None]
        a = a.copy()
        a[huge] = np.ldexp(a[huge], -exp[..., None])
        t = a.swapaxes(-1, -2) if wide else a
        gram[huge] = t[huge].swapaxes(-1, -2) @ t[huge]
    rows = gram.shape[-1]
    top = blas._top_eigh(gram, rank) if rows >= max(_TOP_R_FROM, _ROWS_PER_PAIR * rank) else None
    if top is None:
        lam, vec = np.linalg.eigh(gram)
        lam = lam[..., ::-1][..., :rank]
        near = vec[..., ::-1][..., :rank]
    else:
        lam, near, bad = top
        for i in map(tuple, np.argwhere(bad)):  # its Gram now holds reflectors: rebuild it
            lam_i, vec_i = np.linalg.eigh(t[i].swapaxes(-1, -2) @ t[i])
            lam[i], near[i] = lam_i[::-1][:rank], vec_i[:, ::-1][:, :rank]
    del gram
    failed = ~(lam[..., -1] > _GRAM_FLOOR * lam[..., 0])
    lam[failed] = 1.0
    s = np.sqrt(lam)
    far = t @ near
    far /= s[..., None, :]
    u, v = (near, far) if wide else (far, near)
    if np.count_nonzero(failed):  # cheaper than any() or argwhere() on one matrix's 0-d mask
        for i in map(tuple, np.argwhere(failed)):
            ui, si, vti = np.linalg.svd(a[i], full_matrices=False)
            u[i], s[i], v[i] = ui[:, :rank], si[:rank], vti[:rank].T
    if exp is not None:
        s[huge] = np.ldexp(s[huge], exp)
    u, v = _anchor_signs(u, v)
    return u, s, v


def truncated_svd_batch(mats: np.ndarray, rank: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-r truncated SVD of every matrix in an (n, K, L) stack.

    Returns stacks u (n, K, r), s (n, r) and v (n, L, r); each slice follows
    the conventions of `truncated_svd`. One batched Gram matmul serves the
    whole stack; then one batched eigh or, for Grams of at least 32 rows
    and 6 per wanted pair, a top-r LAPACK eigensolver per Gram; a zero or
    nearly rank-deficient matrix is refit with the full SVD (see
    `_gram_fit`).
    """
    mats = np.asarray(mats, dtype=np.float64)
    if mats.ndim != 3:
        raise ValueError(f"expected an (n, K, L) matrix stack, got ndim={mats.ndim}")
    if not np.all(np.isfinite(mats)):
        raise ValueError("matrix entries must all be finite")
    _, k, l = mats.shape
    _require_counts(rank=rank)
    if rank > min(k, l):
        raise ValueError(f"rank must satisfy 1 <= rank <= {min(k, l)}, got {rank}")
    return _gram_fit(mats, rank)


def _anchor_signs(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flip singular pairs so the largest-magnitude entry of each left
    singular vector is positive; u is (..., K, r) and v is (..., L, r)."""
    # |u| is made C-ordered as (..., r, K), so argmax scans it without a
    # transposed copy.
    anchor = np.argmax(np.abs(u.swapaxes(-1, -2), order="C"), axis=-1)[..., None, :]
    signs = np.copysign(1.0, np.take_along_axis(u, anchor, axis=-2))
    return u * signs, v * signs


def truncated_svd(mat: np.ndarray, rank: int) -> LowRankFactors:
    """Best rank-r approximation factors of a matrix (Eckart-Young).

    Signs are fixed so the largest-magnitude entry of each left singular
    vector is positive, making the factors reproducible across runs and
    linear-algebra backends. Computed by `truncated_svd_batch` on a stack
    of one, so a single matrix and a window stack share one numerical path.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={mat.ndim}")
    u, s, v = truncated_svd_batch(mat[None], rank)
    return LowRankFactors(u=u[0], s=s[0], v=v[0])


# GoDec stops once an iteration lowers the residual norm by no more than a
# fifth of that norm's own standard error under Gaussian noise: a K x L
# residual of norm res has about res / sqrt(2 K L) of it, so smaller moves
# are not resolved by the data. On the 64x64x64 rank-7 scene with 5%
# impulses (window 20, 5% budget) a fifth rather than a fiftieth took 6.2-6.6
# mean iterations per window down to 5.0-5.1, and rmse rose by at most
# 0.07%; a half rose it by 0.11%. `_TOL` of the input norm (of 1 for smaller
# inputs) is the floor: it sits far above the float64 rounding of that norm,
# about 1e-16 relative, so round-off never decides the stop, and it alone
# stops an exact low-rank input, whose residual is zero.
_NOISE_STEPS = 5
_TOL = 1e-7
# Largest Frobenius norm whose square float64 holds.
_NORM_BOUND = float(np.sqrt(np.finfo(np.float64).max))


def _largest_index(mat: np.ndarray, count: int) -> np.ndarray:
    """Flat indices of the `count` largest-magnitude entries, in no order.

    Ties at the count-th largest magnitude are kept lowest flat index
    first, so the kept set is deterministic (the set a stable descending
    sort would keep).
    """
    flat = np.abs(mat).ravel()
    if count >= flat.size:
        return np.arange(flat.size)
    if count == 0:
        return np.empty(0, dtype=np.intp)
    cut = flat.size - count
    threshold = np.partition(flat, cut)[cut]
    above = np.flatnonzero(flat > threshold)
    ties = np.flatnonzero(flat == threshold)[:count - above.size]
    return np.concatenate([above, ties])


def godec(
    mat: np.ndarray,
    rank: int,
    sparse_count: int = 0,
    max_iter: int = 100,
    *,
    start: LowRankFactors | None = None,
) -> GodecResult:
    """Alternating decomposition of a matrix into low-rank plus sparse parts.

    Each iteration fits x = input - sparse at rank r, then rebuilds the
    sparse part from the `sparse_count` largest-magnitude residual entries.
    The first fit is the truncated SVD of the input, so with
    sparse_count = 0 the result equals a single truncated SVD. A caller
    that already holds that SVD, such as a batched fit of many windows,
    passes it as `start` (rank-r factors of a K x L input, else ValueError)
    and the first fit is skipped; the result is the same. Later passes
    iterate on the warm subspace q (L x r, orthonormal; the first fit's v
    to begin with) and factor nothing: each takes one block power step
    q = orth(x^T (x q)) and sets the low-rank part to (x q) q^T, the
    projection of x onto span(q). When the loop stops, one Rayleigh-Ritz
    fit factors it: the truncated SVD's Gram fit of the K x r matrix x q
    gives u, s and w, and v = q w, so u diag(s) v^T = x q q^T: `factors`
    reproduces `low_rank` up to rounding, the kernel's full-SVD refit of a
    nearly rank-deficient x q included. Inside the loop the sparse part
    is only the flat indices and values of its entries; the dense one is
    built at the end.

    The residual norm is monotone non-increasing. The previous low-rank
    part has row space span(q) (span(v) for the first fit), so it is no
    closer to x than the projection x q q^T; a power step captures at
    least as much of ||x||_F^2 as q does, so the projection onto the
    stepped q is closer still; and the sparse step keeps the residual's
    largest entries, which can only lower its norm.

    Convergence: stops once an iteration lowers the residual norm res by
    no more than res / (5 sqrt(2 K L)), a fifth of that norm's standard
    error under Gaussian noise, or by no more than `_TOL` times the input
    norm (of 1 for smaller inputs), whichever is larger; or after
    `max_iter` iterations. The floor alone stops an exact low-rank input.
    The alternation is a local method starting from a zero sparse part, so
    a sparse component whose magnitude rivals the input's spectral norm can
    be absorbed by the first low-rank fit instead of being isolated.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={mat.ndim}")
    _require_counts(0, sparse_count=sparse_count)
    _require_counts(max_iter=max_iter)
    if start is not None:
        k, l = mat.shape
        shapes = (start.u.shape, start.s.shape, start.v.shape)
        if shapes != ((k, rank), (rank,), (l, rank)):
            raise ValueError(f"start must hold rank-{rank} factors of a {k}x{l} matrix, "
                             f"got u, s, v of shapes {shapes}")

    with np.errstate(over="ignore"):
        norm = np.linalg.norm(mat)
    if not np.isfinite(norm):
        raise ValueError("godec squares its input: its Frobenius norm must be below "
                         f"{_NORM_BOUND:.4g}, the square root of the largest float64")
    floor = _TOL * max(norm, 1.0)
    noise = _NOISE_STEPS * np.sqrt(2.0 * mat.size)
    factors = truncated_svd(mat, rank) if start is None else start
    low_rank = factors.matrix()
    q = factors.v
    history: list[float] = []
    prev = np.inf
    for it in range(1, max_iter + 1):
        residual = mat - low_rank
        keep = _largest_index(residual, sparse_count)
        flat = residual.ravel()
        values = flat[keep]
        flat[keep] = 0.0
        res = float(np.linalg.norm(residual))
        history.append(res)
        converged = bool(sparse_count == 0 or prev - res <= max(res / noise, floor))
        if converged or it == max_iter:
            break
        prev = res
        x = mat.copy()
        x.ravel()[keep] -= values
        q = np.linalg.qr(x.T @ (x @ q))[0]
        xq = x @ q
        del x, low_rank, residual, flat  # not read again: free them before the next pass
        low_rank = xq @ q.T

    if it > 1:
        u, s, w = _gram_fit(xq, rank)
        factors = LowRankFactors(u=u, s=s, v=q @ w)
    sparse = np.zeros(mat.shape)
    sparse.ravel()[keep] = values
    return GodecResult(
        low_rank=low_rank,
        sparse=sparse,
        factors=factors,
        iterations=it,
        converged=converged,
        residual_history=history,
    )
