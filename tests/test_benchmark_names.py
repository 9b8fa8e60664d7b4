"""The public names the benchmark pins.

BENCHMARK.json lists per-layer metrics keyed by `<layer>.<fn>.calls` and
`<layer>.<fn>.busy_s`. The benchmark's tracer records every public
function of every `lrma_uq` module under its module's name and reads each
metric by key, so a pinned function that is deleted or made private, or a
new module with a public function, breaks every traced run. These tests
read BENCHMARK.json, the package and the benchmark's workload table, and
check that every scene's denoise flags still parse into a config, that the
pipeline's variance runs through the pinned `aggregate_variance`, that
its windows are shaped by the pinned `patch_to_matrix` and deposited by
the pinned `scatter_add_patch`, and that a sparse budget fits each window
through the pinned `godec`.
"""

import importlib
import importlib.util
import json
import pkgutil
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import lrma_uq
from lrma_uq import HsiCube, PipelineConfig, WindowConfig, cli, denoise, denoise_with_uq, pipeline

_BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
_WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _per_layer_names() -> list[str]:
    with open(_BENCHMARK, encoding="utf-8") as fh:
        return [metric["name"] for metric in json.load(fh)["per_layer"]]


def _public_functions(module: types.ModuleType) -> set[str]:
    """Names of the public functions defined in `module` itself (not
    imported into it), as the tracer records them: by `__name__`."""
    return {
        value.__name__ for name, value in vars(module).items()
        if not name.startswith("_")
        and isinstance(value, types.FunctionType)
        and value.__module__ == module.__name__
    }


def test_pinned_functions_are_public_in_their_layer():
    pinned = {
        tuple(name.split(".")[:2]) for name in _per_layer_names()
        if name.count(".") == 2 and name.endswith((".calls", ".busy_s"))
    }
    assert pinned, "BENCHMARK.json pins no function"
    missing = [
        f"{layer}.{fn}" for layer, fn in sorted(pinned)
        if fn not in _public_functions(importlib.import_module(f"lrma_uq.{layer}"))
    ]
    assert not missing, f"pinned names are not public functions: {missing}"


def test_every_module_with_public_functions_is_a_layer():
    layers = {
        name[:-len(".self_s")] for name in _per_layer_names() if name.endswith(".self_s")
    }
    unlisted = [
        info.name for info in pkgutil.iter_modules(lrma_uq.__path__)
        if info.name not in layers
        and _public_functions(importlib.import_module(f"lrma_uq.{info.name}"))
    ]
    assert not unlisted, f"modules with public functions but no layer: {unlisted}"


def test_benchmark_scene_flags_still_parse(monkeypatch):
    # Each scene runs `denoise` with its flags through the CLI; a flag the
    # parser no longer takes (scene-tsvd passes --solver tsvd) would fail
    # every run of that workload.
    monkeypatch.setattr(sys, "path", list(sys.path))  # the module prepends src/
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    scenes = [w for w in workloads.WORKLOADS.values() if isinstance(w, workloads.Scene)]
    assert scenes
    for scene in scenes:
        args = cli._build_parser().parse_args(
            ["denoise", "--in", "i", "--out", "o", *scene.denoise_flags])
        assert isinstance(cli._pipeline_config(args, args.sigma0), PipelineConfig)


def test_pipeline_variance_goes_through_pinned_function(monkeypatch):
    # The benchmark's annotation of `uncertainty.aggregate_variance` reads
    # its first positional argument, so the pipeline must call it once per
    # run, with positional arguments only.
    calls = []
    real = pipeline.aggregate_variance

    def spy(*args, **kwargs):
        calls.append((len(args), kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "aggregate_variance", spy)
    cube = HsiCube(np.random.default_rng(0).uniform(size=(8, 8, 3)))
    cfg = PipelineConfig(WindowConfig(patch_side=4, step=2, rank=1), sigma0=0.1)
    denoise_with_uq(cube, cfg)
    assert calls == [(4, {})]


@pytest.mark.parametrize("threads", [1, 2])
def test_pipeline_windows_go_through_pinned_scatter(monkeypatch, threads):
    # `cube.scatter_add_patch` is pinned by call count: the pipeline adds
    # every fitted window with it, once per window, in grid.origins order.
    calls = []
    real = pipeline.scatter_add_patch

    def spy(acc, origin, patch):
        calls.append(tuple(origin))
        return real(acc, origin, patch)

    monkeypatch.setattr(pipeline, "scatter_add_patch", spy)
    cube = HsiCube(np.random.default_rng(0).uniform(size=(10, 8, 3)))
    cfg = PipelineConfig(WindowConfig(patch_side=4, step=2, rank=1), threads=threads)
    denoise(cube, cfg)
    grid = pipeline.enumerate_patches(cube.dims, cfg.window)
    assert calls == [(r, c, 0) for r, c in grid.origins]


def test_pipeline_windows_go_through_pinned_reshape(monkeypatch):
    # `windows.patch_to_matrix` is pinned by call count: the pipeline shapes
    # each chunk of windows into matrices with it, once per chunk. The 4
    # origin rows of 3 windows are one chunk under the 1 MiB budget, and
    # chunks of 2 windows under a 2-window budget.
    calls = []
    real = pipeline.patch_to_matrix

    def spy(chunk):
        calls.append(chunk.shape)
        return real(chunk)

    monkeypatch.setattr(pipeline, "patch_to_matrix", spy)
    cube = HsiCube(np.random.default_rng(0).uniform(size=(10, 8, 3)))
    cfg = PipelineConfig(WindowConfig(patch_side=4, step=2, rank=1))
    denoise(cube, cfg)
    assert calls == [(12, 4, 4, 3)]
    calls.clear()
    monkeypatch.setattr(pipeline, "_GROUP_BYTES", 2 * 4 * 4 * 3 * 8)
    denoise(cube, cfg)
    assert calls == [(2, 4, 4, 3)] * 6


@pytest.mark.parametrize("threads", [1, 2])
def test_pipeline_godec_is_called_once_per_window(monkeypatch, threads):
    # `lowrank.godec` is pinned by call count, and the tracer's annotation
    # reads its result's `iterations` and `converged` (the
    # `lowrank.godec.iterations_mean` and `converged_ratio` metrics): with a
    # sparse budget the pipeline calls it once per window, the window's
    # matrix first.
    calls = []
    real = pipeline.godec

    def spy(*args, **kwargs):
        fit = real(*args, **kwargs)
        calls.append((args[0], fit))
        return fit

    monkeypatch.setattr(pipeline, "godec", spy)
    cube = HsiCube(np.random.default_rng(0).uniform(size=(10, 8, 3)))
    cfg = PipelineConfig(WindowConfig(patch_side=4, step=2, rank=1, sparse_card=0.1),
                         sigma0=0.1, threads=threads)
    denoise_with_uq(cube, cfg)
    grid = pipeline.enumerate_patches(cube.dims, cfg.window)
    assert len(calls) == len(grid)
    for mat, fit in calls:
        assert isinstance(mat, np.ndarray) and mat.shape == (16, 3)
        assert np.ndim(fit.iterations) == 0 and 1 <= int(fit.iterations) <= cfg.max_iter
        assert bool(fit.converged) in (True, False)
