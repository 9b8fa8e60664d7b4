"""Tests of the BLAS thread pin: the fit runs with numpy's OpenBLAS at one
thread, the previous count comes back after a return, an exception, nesting
and concurrent callers, and everything still works when no OpenBLAS is
found.

The pin changes process-wide library state, so each test that needs it
starts from a known count (3, distinct from 1 and from the core count) and
puts the original back when it ends.
"""

import sys
import threading

import numpy as np
import pytest

from lrma_uq import (
    PipelineConfig,
    WindowConfig,
    add_gaussian,
    blas,
    denoise,
    denoise_with_uq,
    pipeline,
    synth_lowrank_cube,
)
from lrma_uq.cli import _resolve_threads

START = 3


@pytest.fixture
def openblas():
    lib = blas._library()
    if lib is None:
        pytest.skip("numpy's OpenBLAS was not found; the pin is a no-op here")
    original = lib.get_threads()
    lib.set_threads(START)
    yield lib
    lib.set_threads(original)


def noisy_cube():
    return add_gaussian(synth_lowrank_cube((16, 15, 6), true_rank=2, seed=61), 0.05, seed=61)


def config(threads=1):
    return PipelineConfig(window=WindowConfig(patch_side=5, step=3, rank=3),
                          sigma0=0.05, threads=threads)


def test_fit_runs_pinned_and_count_is_restored_after_return(openblas, monkeypatch):
    seen = []
    real = pipeline.truncated_svd_batch

    def spy(*args, **kwargs):
        seen.append(openblas.get_threads())
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "truncated_svd_batch", spy)
    for threads in (1, 2):
        denoise_with_uq(noisy_cube(), config(threads))
        assert openblas.get_threads() == START
    assert seen and set(seen) == {1}


@pytest.mark.parametrize("threads", [1, 2])
def test_count_is_restored_after_an_exception(openblas, monkeypatch, threads):
    def fail(*args, **kwargs):
        raise RuntimeError("fit failed")

    monkeypatch.setattr(pipeline, "truncated_svd_batch", fail)
    with pytest.raises(RuntimeError, match="fit failed"):
        denoise_with_uq(noisy_cube(), config(threads))
    assert openblas.get_threads() == START


def test_nested_pins_restore_only_at_the_outermost_exit(openblas):
    with blas._one_thread():
        assert openblas.get_threads() == 1
        with blas._one_thread():
            assert openblas.get_threads() == 1
        assert openblas.get_threads() == 1
    assert openblas.get_threads() == START


def test_concurrent_callers_get_serial_bytes_and_restore_the_count(openblas):
    noisy = noisy_cube()
    serial = denoise_with_uq(noisy, config(1))
    results, errors = {}, []

    def call(k):
        try:
            for _ in range(3):
                den, var = denoise_with_uq(noisy, config(2))
                results.setdefault(k, []).append((den.data, var.data))
        except Exception as exc:  # reported by the main thread below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(k,)) for k in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in callers)
    assert errors == []
    assert sorted(results) == [0, 1, 2, 3]
    for runs in results.values():
        assert len(runs) == 3
        for den, var in runs:
            np.testing.assert_array_equal(den, serial[0].data)
            np.testing.assert_array_equal(var, serial[1].data)
    assert openblas.get_threads() == START


def test_without_openblas_default_is_one_worker_and_denoising_works(monkeypatch):
    noisy = noisy_cube()
    expected = denoise(noisy, config(2)).data
    monkeypatch.setattr(blas, "_library", lambda: None)
    assert not blas._can_pin()
    assert _resolve_threads(None) == 1
    np.testing.assert_array_equal(denoise(noisy, config(2)).data, expected)
