"""In-memory span tracer for the lrma_uq modules, and the per-layer metrics
derived from its spans.

`Tracer.install` replaces every public function of the package in each
module namespace where a caller looks it up (for example both
`lrma_uq.pipeline.truncated_svd` and `lrma_uq.lowrank.truncated_svd`), so
calls are recorded without touching the program's source. `uninstall`
restores the originals. A span is (name, layer, start, end, thread, parent);
a call made on a worker thread with no open span of its own is parented to
the innermost span open on the installing thread, which is the call that
handed out the work.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import sys
import threading
import time
import types
from dataclasses import dataclass, field

LAYERS = ("cli", "cube", "io", "lowrank", "noise", "pipeline", "uncertainty", "validate", "windows")


@dataclass
class Span:
    sid: int
    name: str
    layer: str
    start: float
    parent: int | None
    thread: int
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


def _svd_gflop(shape) -> float:
    # Thin R-SVD (U1, S, V) operation count from Golub & Van Loan, table 8.6.1:
    # 6 m n^2 + 20 n^3 for an m x n matrix with m >= n. Computed, not measured.
    m, n = max(shape), min(shape)
    return (6.0 * m * n * n + 20.0 * n ** 3) / 1e9


def _file_bytes(path) -> int:
    return os.path.getsize(path)


# Per-function annotations taken from arguments or results at the call.
_ANNOTATE = {
    "io.read_cube": lambda a, kw, r: {"bytes": _file_bytes(a[0])},
    "io.write_cube": lambda a, kw, r: {"bytes": _file_bytes(a[1])},
    "lowrank.truncated_svd": lambda a, kw, r: {"gflop": _svd_gflop(a[0].shape)},
    "lowrank.godec": lambda a, kw, r: {"iterations": r.iterations, "converged": bool(r.converged)},
    "uncertainty.aggregate_variance": lambda a, kw, r: {"stack_bytes": getattr(a[0], "nbytes", 0)},
    "validate.monte_carlo": lambda a, kw, r: {"trial_seconds": list(r.trial_seconds)},
}


class Tracer:
    """Records spans for every public lrma_uq function while installed."""

    def __init__(self, package: types.ModuleType) -> None:
        self.package = package
        self._records: list[list] = []
        self._stacks: dict[int, list[list]] = {}
        self._main_stack: list[list] = self._stacks.setdefault(threading.get_ident(), [])
        self._ids = itertools.count()
        self._patched: list[tuple[types.ModuleType, str, object]] = []
        self.functions: set[str] = set()

    def _wrap(self, fn, name: str, layer: str):
        annotate = _ANNOTATE.get(name)
        stacks, main_stack, records, ids = self._stacks, self._main_stack, self._records, self._ids
        clock, get_ident = time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = get_ident()
            stack = stacks.get(tid)
            if stack is None:
                stack = stacks[tid] = []
            outer = stack or main_stack
            # [id, name, layer, parent, thread, start, end, attrs]
            rec = [next(ids), name, layer, outer[-1][0] if outer else None, tid, clock(), 0.0, None]
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[6] = clock()
                stack.pop()
                records.append(rec)
            if annotate is not None:
                rec[7] = annotate(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        prefix = self.package.__name__ + "."
        modules = [self.package] + [
            m for n, m in sorted(sys.modules.items()) if n.startswith(prefix) and m is not None
        ]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                home = value.__module__ or ""
                if not home.startswith(prefix):
                    continue
                layer = home[len(prefix):]
                if id(value) not in wrappers:
                    name = f"{layer}.{value.__name__}"
                    wrappers[id(value)] = self._wrap(value, name, layer)
                    self.functions.add(name)
                self._patched.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def take(self) -> list[Span]:
        """Spans recorded since the last take, in completion order."""
        records = self._records[:]
        del self._records[:len(records)]
        return [Span(i, n, l, start, parent, tid, end, attrs or {})
                for i, n, l, parent, tid, start, end, attrs in records]

    @staticmethod
    def write(spans: list[Span], path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in spans:
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name, "layer": s.layer, "parent": s.parent,
                    "thread": s.thread, "start": s.start, "end": s.end, "attrs": s.attrs,
                }) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Wall-clock self time of every span.

    At each instant the elapsed time goes to the innermost open spans, those
    with no open child, shared equally when worker threads run several at
    once. Within one thread this is the span's duration minus the part of it
    its children cover; across threads the self times of a call tree add up
    to the wall time of its root.
    """
    by_id = {s.sid: s for s in spans}
    events = []
    for s in spans:
        events.append((s.start, 1, s.sid))
        events.append((s.end, 0, s.sid))
    events.sort()
    open_children: dict[int, int] = {}
    innermost: set[int] = set()
    result = {s.sid: 0.0 for s in spans}
    last = events[0][0] if events else 0.0
    for t, kind, sid in events:
        if innermost and t > last:
            share = (t - last) / len(innermost)
            for i in innermost:
                result[i] += share
        last = t
        parent = by_id[sid].parent
        parent_open = parent in open_children
        if kind == 1:
            open_children[sid] = 0
            innermost.add(sid)
            if parent_open:
                open_children[parent] += 1
                innermost.discard(parent)
        else:
            del open_children[sid]
            innermost.discard(sid)
            if parent_open:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    innermost.add(parent)
    return result


def layer_metrics(spans: list[Span], reps: int, functions) -> dict[str, float]:
    """Per-layer metrics, per repetition, from the spans of `reps` traced reps.

    Every function in `functions` gets `<name>.calls` and `<name>.busy_s`
    (summed over threads, so it can exceed wall time), every layer gets
    `<layer>.self_s`, and a few figures are derived from span annotations.
    """
    per = 1.0 / reps
    calls = dict.fromkeys(functions, 0)
    busy = dict.fromkeys(functions, 0.0)
    for s in spans:
        calls[s.name] += 1
        busy[s.name] += s.end - s.start
    layer_self = dict.fromkeys(LAYERS, 0.0)
    selfs = self_times(spans)
    for s in spans:
        layer_self[s.layer] += selfs[s.sid]

    def attrs(name: str, key: str) -> list:
        return [s.attrs[key] for s in spans if s.name == name and key in s.attrs]

    def rate(amount: float, seconds: float) -> float:
        return amount / seconds if seconds else 0.0

    iters = attrs("lowrank.godec", "iterations")
    converged = attrs("lowrank.godec", "converged")
    trial_s = [t for ts in attrs("validate.monte_carlo", "trial_seconds") for t in ts]
    svd_gflop = sum(attrs("lowrank.truncated_svd", "gflop"))
    written = sum(attrs("io.write_cube", "bytes"))
    plain = rate(busy["pipeline.denoise"], calls["pipeline.denoise"])
    with_uq = rate(busy["pipeline.denoise_with_uq"], calls["pipeline.denoise_with_uq"])

    m = {f"{name}.calls": n * per for name, n in calls.items()}
    m.update({f"{name}.busy_s": t * per for name, t in busy.items()})
    m.update({f"{layer}.self_s": t * per for layer, t in layer_self.items()})
    m.update({
        "io.bytes_read": sum(attrs("io.read_cube", "bytes")) * per,
        "io.bytes_written": written * per,
        "io.write_mb_per_s": rate(written / 1e6, busy["io.write_cube"]),
        "lowrank.svd_gflop": svd_gflop * per,
        "lowrank.gflop_per_s": rate(svd_gflop, busy["lowrank.truncated_svd"]),
        "lowrank.godec.iterations_mean": statistics.fmean(iters) if iters else 0.0,
        "lowrank.godec.iterations_max": max(iters, default=0),
        "lowrank.godec.capped": converged.count(False) * per,
        "lowrank.godec.converged_ratio": rate(converged.count(True), len(converged)),
        "uncertainty.stack_mb": max(attrs("uncertainty.aggregate_variance", "stack_bytes"), default=0) / 1e6,
        "uncertainty.extra_share": rate(with_uq - plain, plain) if with_uq else 0.0,
        "validate.trial_s_p50": statistics.median(trial_s) if trial_s else 0.0,
    })
    return m
