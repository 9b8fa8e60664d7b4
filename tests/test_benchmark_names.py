"""The public names the benchmark pins.

BENCHMARK.json lists per-layer metrics keyed by `<layer>.<fn>.calls` and
`<layer>.<fn>.busy_s`. The benchmark's tracer records every public
function of every `lrma_uq` module under its module's name and reads each
metric by key, so a pinned function that is deleted or made private, or a
new module with a public function, breaks every traced run. These tests
read only BENCHMARK.json and the package.
"""

import importlib
import json
import pkgutil
import types
from pathlib import Path

import lrma_uq

_BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


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
