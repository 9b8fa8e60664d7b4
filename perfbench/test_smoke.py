"""Smoke test of the benchmark itself, on tiny versions of its workloads.

    python3 -m pytest -q perfbench

Checks that every metric BENCHMARK.json names is emitted with its unit, that
the output checks flag a corrupted cube, and that the benchmark refuses to
run in a directory without the program's sources.
"""

import os
import shutil
import struct
import subprocess
import sys
from dataclasses import replace

import pytest

import run
import workloads

TINY_FLAGS = ("--window", "8", "--step", "4", "--rank", "2")
TINY = {
    "scene-tsvd": replace(
        workloads.WORKLOADS["scene-tsvd"], dims=(16, 16, 8), true_rank=2,
        denoise_flags=TINY_FLAGS + ("--solver", "tsvd", "--sigma0", "0.05"),
    ),
    "scene-godec": replace(
        workloads.WORKLOADS["scene-godec"], dims=(16, 16, 8), true_rank=2,
        denoise_flags=TINY_FLAGS + ("--sparse-card", "0.05", "--sigma0", "0.05"),
    ),
    "mc-calibration": replace(
        workloads.WORKLOADS["mc-calibration"], dims=(16, 16, 8), true_rank=2,
        window=(8, 4, 2), trials=4,
    ),
}
DETAILS = {
    "scene-tsvd": {"denoise_s", "denoise_uq_s", "fail_ratio"},
    "scene-godec": {"denoise_uq_s", "fail_ratio"},
    "mc-calibration": {"mc_s", "fail_ratio"},
}


def _assert_emitted(metrics: dict, listed: list) -> None:
    assert set(metrics) == {m["name"] for m in listed}
    for m in listed:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)), (m["name"], got)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted(name, trace):
    record = run.measure(name, seed=0, seconds=0.01, trace=trace, workload=TINY[name])
    assert record["failed"] == 0, record["problems"]
    assert record["attempted"] >= 1
    spec = run.load_spec()
    _assert_emitted(record["metrics"], spec["per_layer"] if trace else spec["end_to_end"])
    assert set(record["details"]) == DETAILS[name]
    assert all(v["unit"] for v in record["details"].values())
    assert record["digests"]


def _corrupt(src: str, dst: str, value: float) -> None:
    shutil.copyfile(src, dst)
    with open(dst, "r+b") as fh:
        header = fh.readline()
        fh.seek(len(header))
        fh.write(struct.pack("<d", value))


@pytest.mark.parametrize("value", [float("nan"), -1.0])
def test_output_check_flags_a_corrupted_variance_cube(tmp_path, value):
    scene = TINY["scene-tsvd"]
    scene_run = workloads.make_run(scene.name, 0, str(tmp_path), scene)
    scene_run.setup()
    for _, call, _ in scene_run.operations():
        assert call() == 0
    good = workloads.check_scene_outputs(scene, scene_run.clean, scene_run.den_path, scene_run.var_path)
    assert good.problems == []

    bad_path = str(tmp_path / "variance-bad.hsic")
    _corrupt(scene_run.var_path, bad_path, value)
    bad = workloads.check_scene_outputs(scene, scene_run.clean, scene_run.den_path, bad_path)
    assert bad.problems


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copyfile(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-calibration",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
