"""Benchmark of lrma-uq: wall time, memory and output quality of three
workloads, and per-layer numbers from a separate traced run.

    python3 perfbench/run.py --workload scene-tsvd --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
With --trace 0 the run times the workload's operations untraced and reports
the end-to-end metrics named in BENCHMARK.json; a time is the sum of the
fastest times in the run of its parts (each operation, and each trial of a
Monte Carlo run). With --trace 1 it alternates untraced and traced
repetitions and reports the per-layer metrics, including the tracing
overhead. The last line of stdout is the JSON result; a fuller
record (every repetition's times, digests, environment) goes to
.perfbench/<workload>-s<seed>-t<trace>.json, and the spans of a traced run
to .perfbench/<workload>-s<seed>.spans.jsonl. The benchmark never sets the
thread variables it records: BLAS and CLI threading are part of what it
measures.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPS = 3
MIN_REPS = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "LRMA_UQ_THREADS")

# Reported beside the BENCHMARK.json metrics, on the workloads that run them.
DETAIL_UNITS = {
    "denoise_s": "s", "denoise_uq_s": "s", "mc_s": "s", "fail_ratio": "ratio",
}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def environment(lrma_uq) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        workers = lrma_uq.cli._resolve_threads(None)
    except Exception as exc:  # an invalid LRMA_UQ_THREADS is recorded, not fatal
        workers = f"error: {exc}"
    return {
        "cpu_count": os.cpu_count(),
        "cli_workers": workers,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "env": {k: os.environ.get(k) for k in THREAD_VARS},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }


def import_seconds() -> float:
    """Time to import the program (numpy, scipy and lrma_uq) in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import workloads; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, HERE], capture_output=True, text=True,
                          check=True, timeout=120)
    return float(proc.stdout)


class Measurement:
    """Timed repetitions of a workload's operations, with their checks."""

    def __init__(self, run, tracer=None) -> None:
        self.run = run
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, dict[str, str]] = {}
        self.values: dict[str, float] = {}
        self.times: dict[bool, list[dict[str, float]]] = {False: [], True: []}
        self.parts: dict[bool, list[dict[str, float]]] = {False: [], True: []}

    def rep(self, traced: bool) -> float:
        times, parts = {}, {}
        for label, call, check in self.run.operations():
            self.attempted += 1
            if traced:
                self.tracer.install()
            t0 = time.perf_counter()
            try:
                code = call()
            except Exception:
                code = None
                self.problems.append(f"{label}: {traceback.format_exc(limit=3)}")
            finally:
                times[label] = time.perf_counter() - t0
                if traced:
                    self.tracer.uninstall()
            if code != 0:
                self.failed += 1
                if code is not None:
                    self.problems.append(f"{label}: exit code {code}")
                continue
            parts.update((f"{label}/{k}", v) for k, v in self.run.parts(label, times[label]).items())
            outcome = check()
            first = self.digests.setdefault(label, outcome.digests)
            outcome.require(first == outcome.digests,
                            f"{label}: output digests differ between repetitions")
            if outcome.problems:
                self.failed += 1
                self.problems.extend(f"{label}: {p}" for p in outcome.problems)
            self.values.update(outcome.values)
        self.times[traced].append(times)
        self.parts[traced].append(parts)
        return sum(times.values())

    def fastest(self, traced: bool, label: str | None = None) -> float:
        """The time of an operation (or of all of them) as the sum, over its
        parts, of each part's fastest time in the run. Every repetition does
        the same work and a shared host only ever slows it, so the fastest
        time is the program's own; a median follows how busy the host was.
        A part is a whole operation, or a trial of a Monte Carlo run."""
        reps = self.parts[traced]
        keys = {k for r in reps for k in r if label in (None, k.split("/")[0])}
        if not keys:  # every call failed: fall back to the whole calls
            reps = self.times[traced]
            keys = {k for r in reps for k in r if label in (None, k)}
        return sum(min(r[k] for r in reps if k in r) for k in keys)


def measure(name: str, seed: int, seconds: float, trace: bool, workload=None) -> dict:
    """Run one workload and return its full record."""
    t0 = time.perf_counter()
    import workloads
    from spans import Tracer, layer_metrics
    imports = [time.perf_counter() - t0] + [import_seconds() for _ in range(SETUP_REPS - 1)]

    import lrma_uq

    workdir = os.path.join(OUT_DIR, f"{name}-s{seed}-t{int(trace)}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        run = workloads.make_run(name, seed, workdir, workload)
        setups = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            run.setup()
            setups.append(time.perf_counter() - t0)

        warm_dir = os.path.join(workdir, "warm")
        os.makedirs(warm_dir)
        # A small version of the workload fills lazy state before anything is timed.
        warm = workloads.make_run(name, seed, warm_dir, run.workload.warm())
        warm.setup()
        for _, call, _ in warm.operations():
            call()

        tracer = Tracer(lrma_uq) if trace else None
        m = Measurement(run, tracer)
        spans = []
        start = time.perf_counter()
        traced = False
        while True:
            rep_s = m.rep(traced)
            if traced:
                spans.extend(tracer.take())
            # At least two repetitions, and in a traced run one of each kind;
            # then stop once another would end well past the time budget.
            done = len(m.times[False]) + len(m.times[True]) >= MIN_REPS
            if done and time.perf_counter() - start + 0.5 * rep_s > seconds:
                break
            traced = trace and not traced
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spec = load_spec()
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "why": run.workload.why,
        "repetitions": {"untraced": m.times[False], "traced": m.times[True]},
        "attempted": m.attempted, "failed": m.failed, "problems": m.problems,
        "digests": m.digests, "environment": environment(lrma_uq),
    }
    details = {label: m.fastest(False, label) for label in m.times[False][0]}
    details["fail_ratio"] = m.failed / m.attempted
    record["details"] = {k: {"value": v, "unit": DETAIL_UNITS[k]} for k, v in details.items()}

    if not trace:
        values = {
            "setup_s": statistics.median(imports) + statistics.median(setups),
            "task_s": m.fastest(False),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "rmse": m.values.get("rmse"),
            "coverage_err": (abs(m.values["coverage"] - workloads.TARGET_COVERAGE)
                             if "coverage" in m.values else None),
        }
        listed = spec["end_to_end"]
    else:
        values = layer_metrics(spans, len(m.times[True]), tracer.functions)
        untraced = m.fastest(False)
        values["trace.overhead_ratio"] = m.fastest(True) / untraced
        values["trace.accounted_ratio"] = sum(
            v for k, v in values.items() if k.endswith(".self_s")) / untraced
        listed = spec["per_layer"]
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(spans, os.path.join(OUT_DIR, f"{name}-s{seed}.spans.jsonl"))
    record["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    return record


def run_all(args, names) -> int:
    """Each workload in its own interpreter, one after another."""
    code = 0
    for name in names:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd, check=False).returncode)
    return code


def main(argv=None) -> int:
    names = [w["name"] for w in load_spec()["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args, names)

    sys.path.insert(0, HERE)
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 1

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for key in ("details", "metrics"):
        for k, v in record[key].items():
            print(f"{args.workload:16s} {k:40s} {v['value']!r:>24} {v['unit']}")
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
