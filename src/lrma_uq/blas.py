"""Hold numpy's OpenBLAS at one thread while windows are fitted.

Row workers each run their own LAPACK calls; letting OpenBLAS start its
own threads inside every worker oversubscribes the cores. The thread count
is process-wide state of the library, so it is kept here in one place: a
context manager that pins it to 1 while any caller holds it and restores
the previous count when the last holder leaves. Setting
OPENBLAS_NUM_THREADS cannot do this once numpy is imported.

Only an OpenBLAS that numpy has already loaded from its own package
directory (the wheels' bundled scipy-openblas) is touched. When none is
found, the pin does nothing and `_can_pin` is False.

Every name here is private: the module is plumbing for `pipeline` and
`cli`, not part of the package's API.
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


class _OpenBlas(NamedTuple):
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]


@functools.cache
def _library() -> _OpenBlas | None:
    """The thread-count functions of numpy's loaded OpenBLAS, or None."""
    # The wheels bundle OpenBLAS in numpy.libs (numpy/.dylibs on macOS).
    pkg = os.path.dirname(np.__file__)
    dirs = (os.path.join(os.path.dirname(pkg), "numpy.libs"), os.path.join(pkg, ".dylibs"))
    # RTLD_NOLOAD only returns a handle to a library already in the process,
    # so a bundled copy numpy did not load is never loaded beside it.
    mode = getattr(os, "RTLD_NOLOAD", 0) | getattr(os, "RTLD_NOW", 0)
    for path in sorted(p for d in dirs for p in glob.glob(os.path.join(d, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path, mode=mode)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            try:
                get_fn, set_fn = getattr(lib, get_name), getattr(lib, set_name)
            except AttributeError:
                continue
            get_fn.argtypes, get_fn.restype = [], ctypes.c_int
            set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
            return _OpenBlas(get_fn, set_fn)
    return None


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
