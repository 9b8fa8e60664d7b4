"""numpy's loaded OpenBLAS: its thread count while windows are fitted, and
the three LAPACK routines of the fit's top-r eigensolver.

Row workers each run their own LAPACK calls; letting OpenBLAS start its
own threads inside every worker oversubscribes the cores. The thread count
is process-wide state of the library, so it is kept here in one place: a
context manager that pins it to 1 while any caller holds it and restores
the previous count when the last holder leaves. Setting
OPENBLAS_NUM_THREADS cannot do this once numpy is imported.

`lowrank._gram_fit` needs only the top r eigenpairs of each window's Gram
matrix. numpy's `eigh` finds all of them; the same library also exports
`dsytrd`, `dstemr` and `dormtr`, which reduce the matrix to tridiagonal
form, find an index range of its eigenpairs by MRRR and map the vectors
back. `_top_eigh` runs them through ctypes. (`dsyevr` is no substitute:
it runs MRRR only for the whole spectrum and falls back to bisection and
inverse iteration for an index range.)

Only an OpenBLAS that numpy has already loaded from its own package
directory (the wheels' bundled scipy-openblas) is touched. When none is
found, the pin does nothing and `_can_pin` is False; when the LAPACK
symbols are not found, `_top_eigh` returns None and the fit keeps `eigh`.

Every name here is private: the module is plumbing for `pipeline`, `cli`
and `lowrank`, not part of the package's API.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
from contextlib import contextmanager
from typing import Callable, Iterator, NamedTuple

import numpy as np

# (get, set) symbol pairs of the OpenBLAS builds numpy ships or links.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)
# (dsytrd, dstemr, dormtr) as numpy 2 and numpy 1.2x wheels spell them. The
# 64_ suffix marks 64-bit INTEGER and LOGICAL arguments; other builds are
# not probed, since their integer width is unknown.
_LAPACK_SYMBOLS = tuple(tuple(f"{prefix}{name}_64_" for name in ("dsytrd", "dstemr", "dormtr"))
                        for prefix in ("scipy_", ""))


@functools.cache
def _loaded() -> tuple[ctypes.CDLL, ...]:
    """The OpenBLAS copies numpy has loaded from its package directory."""
    # The wheels bundle OpenBLAS in numpy.libs (numpy/.dylibs on macOS).
    pkg = os.path.dirname(np.__file__)
    dirs = (os.path.join(os.path.dirname(pkg), "numpy.libs"), os.path.join(pkg, ".dylibs"))
    # RTLD_NOLOAD only returns a handle to a library already in the process,
    # so a bundled copy numpy did not load is never loaded beside it.
    mode = getattr(os, "RTLD_NOLOAD", 0) | getattr(os, "RTLD_NOW", 0)
    libs = []
    for path in sorted(p for d in dirs for p in glob.glob(os.path.join(d, "*openblas*"))):
        try:
            libs.append(ctypes.CDLL(path, mode=mode))
        except OSError:
            continue
    return tuple(libs)


def _find(spellings: tuple[tuple[str, ...], ...]) -> tuple | None:
    """The functions of the first spelling one loaded library has in full."""
    for lib in _loaded():
        for names in spellings:
            try:
                return tuple(getattr(lib, name) for name in names)
            except AttributeError:
                continue
    return None


class _OpenBlas(NamedTuple):
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]


@functools.cache
def _library() -> _OpenBlas | None:
    """The thread-count functions of numpy's loaded OpenBLAS, or None."""
    found = _find(_SYMBOLS)
    if found is None:
        return None
    get_fn, set_fn = found
    get_fn.argtypes, get_fn.restype = [], ctypes.c_int
    set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
    return _OpenBlas(get_fn, set_fn)


def _can_pin() -> bool:
    """Whether `_one_thread` can actually hold BLAS at one thread."""
    return _library() is not None


class _Pin:
    """Count of holders, and the thread count to restore when it drops to 0."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.holders = 0
        self.saved = 1


# One pin per process, because the count it guards is the library's.
_PIN = _Pin()


@contextmanager
def _one_thread() -> Iterator[None]:
    """Run the body with numpy's OpenBLAS at one thread.

    Nested and concurrent uses are safe: the first holder saves the current
    count and sets 1, the last one out restores the saved count. Without a
    pinnable OpenBLAS the body runs unchanged.
    """
    lib = _library()
    if lib is None:
        yield
        return
    with _PIN.lock:
        if _PIN.holders == 0:
            _PIN.saved = lib.get_threads()
            lib.set_threads(1)
        _PIN.holders += 1
    try:
        yield
    finally:
        with _PIN.lock:
            _PIN.holders -= 1
            if _PIN.holders == 0:
                lib.set_threads(_PIN.saved)


class _Lapack(NamedTuple):
    sytrd: Callable[..., None]
    stemr: Callable[..., None]
    ormtr: Callable[..., None]


@functools.cache
def _lapack() -> _Lapack | None:
    """dsytrd, dstemr and dormtr of numpy's loaded OpenBLAS, or None."""
    found = _find(_LAPACK_SYMBOLS)
    if found is None:
        return None
    # Each routine takes its CHARACTER arguments first, then every other
    # argument by address, then one hidden length per CHARACTER argument,
    # as gfortran passes them.
    for fn, chars, pointers in zip(found, (1, 2, 3), (9, 19, 10)):
        fn.argtypes = ([ctypes.c_char_p] * chars + [ctypes.c_void_p] * pointers
                       + [ctypes.c_size_t] * chars)
        fn.restype = None
    return _Lapack(*found)


# Slots of the int64 argument block `_top_eigh` passes by address.
_N, _RANK, _LW_TRD, _LW_MR, _LIW, _LW_MTR, _IL, _IU, _M, _INFO, _TRYRAC = range(11)


@functools.cache
def _workspace(p: int, rank: int) -> tuple[int, int, int, int]:
    """(dsytrd lwork, dstemr lwork, dstemr liwork, dormtr lwork) for a p x p
    matrix and its top `rank` eigenpairs, from LAPACK's own queries.

    They depend on (p, rank) alone, and dsytrd's blocking follows its
    lwork, so no output byte depends on how many matrices a call holds.
    """
    lapack = _lapack()
    ints = np.array([p, rank, -1, -1, -1, -1, p - rank + 1, p, 0, 0, 1], dtype=np.int64)
    at = [ints.ctypes.data + 8 * k for k in range(ints.size)]
    out = np.zeros(1)
    iout = np.zeros(1, dtype=np.int64)
    mat, vec, isuppz = np.zeros((p, p)), np.zeros((rank, p)), np.zeros(2 * rank, dtype=np.int64)
    diag, offd, tau, w = np.zeros((4, p))
    q, qi = out.ctypes.data, iout.ctypes.data
    lapack.sytrd(b"L", at[_N], mat.ctypes.data, at[_N], diag.ctypes.data, offd.ctypes.data,
                 tau.ctypes.data, q, at[_LW_TRD], at[_INFO], 1)
    lw_trd = int(out[0])
    lapack.stemr(b"V", b"I", at[_N], diag.ctypes.data, offd.ctypes.data, q, q, at[_IL],
                 at[_IU], at[_M], w.ctypes.data, vec.ctypes.data, at[_N], at[_RANK],
                 isuppz.ctypes.data, at[_TRYRAC], q, at[_LW_MR],
                 qi, at[_LIW], at[_INFO], 1, 1)
    lw_mr, liw = int(out[0]), int(iout[0])
    lapack.ormtr(b"L", b"L", b"N", at[_N], at[_RANK], mat.ctypes.data, at[_N], tau.ctypes.data,
                 vec.ctypes.data, at[_N], q, at[_LW_MTR], at[_INFO], 1, 1, 1)
    return lw_trd, lw_mr, liw, int(out[0])


def _top_eigh(grams: np.ndarray, rank: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Top `rank` eigenpairs of every matrix in a C-contiguous (..., P, P)
    stack of symmetric float64 matrices, or None without the LAPACK routines.

    Per matrix: dsytrd reduces it to tridiagonal form in place (the stack
    is overwritten with its reflectors), dstemr finds eigenpairs P - rank + 1
    to P by MRRR, and dormtr maps their vectors back. Returns lam
    (..., rank), descending; vectors (..., P, rank) in the same order; and
    a mask of the matrices whose dstemr call failed (info != 0 or fewer
    than `rank` eigenpairs), whose lam and vectors are left unset.
    """
    lapack = _lapack()
    if lapack is None:
        return None
    lead, p = grams.shape[:-2], grams.shape[-1]
    if (grams.dtype != np.float64 or not grams.flags.c_contiguous or not grams.flags.writeable
            or grams.shape[-2] != p or not 1 <= rank <= p):
        raise ValueError(f"expected a writable C-contiguous float64 (..., P, P) stack and "
                         f"1 <= rank <= P, got {grams.dtype} {grams.shape} and rank {rank}")
    grams = grams.reshape(-1, p, p)
    n = len(grams)
    lw_trd, lw_mr, liw, lw_mtr = _workspace(p, rank)
    ints = np.array([p, rank, lw_trd, lw_mr, liw, lw_mtr, p - rank + 1, p, 0, 0, 1],
                    dtype=np.int64)
    at = [ints.ctypes.data + 8 * k for k in range(ints.size)]
    reals = np.empty(4 * p + max(lw_trd, lw_mr, lw_mtr))
    diag, offd, tau, w, work = (reals.ctypes.data + 8 * p * k for k in range(5))
    iwork = np.empty(liw + 2 * rank, dtype=np.int64)
    isuppz = iwork.ctypes.data + 8 * liw
    vecs = np.empty((n, rank, p))  # each a Fortran-ordered P x rank matrix
    lam = np.empty((n, rank))
    bad = np.zeros(n, dtype=bool)
    first_mat, first_vec, iw = grams.ctypes.data, vecs.ctypes.data, iwork.ctypes.data
    for i in range(n):
        mat, vec = first_mat + i * p * p * 8, first_vec + i * rank * p * 8
        lapack.sytrd(b"L", at[_N], mat, at[_N], diag, offd, tau, work, at[_LW_TRD], at[_INFO], 1)
        ints[_TRYRAC] = 1  # dstemr clears it when the matrix lacks relative accuracy
        lapack.stemr(b"V", b"I", at[_N], diag, offd, w, w, at[_IL], at[_IU], at[_M], w, vec,
                     at[_N], at[_RANK], isuppz, at[_TRYRAC], work, at[_LW_MR], iw,
                     at[_LIW], at[_INFO], 1, 1)
        if ints[_INFO] or ints[_M] != rank:
            bad[i] = True
            continue
        lam[i] = reals[3 * p:3 * p + rank]
        lapack.ormtr(b"L", b"L", b"N", at[_N], at[_RANK], mat, at[_N], tau, vec, at[_N], work,
                     at[_LW_MTR], at[_INFO], 1, 1, 1)
    near = np.ascontiguousarray(vecs[:, ::-1].swapaxes(-1, -2))
    return (lam[:, ::-1].reshape(*lead, rank), near.reshape(*lead, p, rank),
            bad.reshape(lead))
