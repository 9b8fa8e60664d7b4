"""The benchmark's workloads: input synthesis, the timed operations, and the
checks on their outputs.

Every input derives from the run seed: the clean cube from seed + 1 and the
noise from 100 * seed, so seed 0 gives mc-calibration exactly the inputs of
acceptance criterion 1 (clean seed 1, trial seeds 0..99). The program only
ever receives the generated cubes. Scenes run through `lrma_uq.cli.main`
in-process on the CLI's default threads; calibration runs through
`lrma_uq.validate.monte_carlo` with the library's default single worker.
Functions are looked up on their modules at call time, so a traced run sees
the same calls.
"""

from __future__ import annotations

import hashlib
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

# Import the program from the src/ of this checkout and nowhere else, so a
# checkout without the sources fails instead of measuring another copy.
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if not os.path.isfile(os.path.join(SRC, "lrma_uq", "__init__.py")):
    raise ImportError(f"no lrma_uq sources under {SRC}")
sys.path.insert(0, SRC)

import lrma_uq  # noqa: E402
import lrma_uq.cli  # noqa: E402
import lrma_uq.io  # noqa: E402
import lrma_uq.noise  # noqa: E402
import lrma_uq.validate  # noqa: E402
from lrma_uq.pipeline import PipelineConfig  # noqa: E402
from lrma_uq.windows import WindowConfig  # noqa: E402

if os.path.dirname(os.path.dirname(os.path.abspath(lrma_uq.__file__))) != SRC:
    raise ImportError(f"lrma_uq was imported from {lrma_uq.__file__}, not from {SRC}")

Z95 = 1.96
TARGET_COVERAGE = 0.95


@dataclass(frozen=True)
class Scene:
    """A synthetic scene denoised through the CLI."""

    name: str
    why: str
    dims: tuple[int, int, int]
    true_rank: int
    sigma0: float
    impulse_ratio: float
    denoise_flags: tuple[str, ...]
    plain: bool  # also time a plain `denoise` beside `denoise --variance-out`

    def warm(self) -> "Scene":
        """The same scene on a cube just big enough for one window per axis."""
        side = int(self.denoise_flags[self.denoise_flags.index("--window") + 1])
        return replace(self, dims=(side + 4, side + 4, self.dims[2]))


@dataclass(frozen=True)
class Calibration:
    """A Monte Carlo coverage run through the library."""

    name: str
    why: str
    dims: tuple[int, int, int]
    true_rank: int
    sigma0: float
    window: tuple[int, int, int]
    trials: int

    def warm(self) -> "Calibration":
        """The same calibration with two trials."""
        return replace(self, trials=2)


WORKLOADS = {
    w.name: w
    for w in (
        Scene(
            name="scene-tsvd",
            why="realistic 128x128x64 rank-7 scene through TSVD: BLAS-bound fit and variance "
                "aggregation dominate; plain and variance denoise timed side by side",
            dims=(128, 128, 64), true_rank=7, sigma0=0.05, impulse_ratio=0.0,
            denoise_flags=("--window", "20", "--step", "4", "--rank", "7",
                           "--solver", "tsvd", "--sigma0", "0.05"),
            plain=True,
        ),
        Scene(
            name="scene-godec",
            why="64x64x64 rank-7 scene with 5% impulses through the default GoDec solver: "
                "the only workload that runs the GoDec loop and its sparse step",
            dims=(64, 64, 64), true_rank=7, sigma0=0.05, impulse_ratio=0.05,
            denoise_flags=("--window", "20", "--step", "4", "--rank", "7",
                           "--sparse-card", "0.05", "--sigma0", "0.05"),
            plain=False,
        ),
        Calibration(
            name="mc-calibration",
            why="criterion-1 Monte Carlo (40x40x16, window 8/4/3, 100 trials, one worker): "
                "per-window overhead, noise and scatter dominate; the single-threaded baseline",
            dims=(40, 40, 16), true_rank=3, sigma0=0.05, window=(8, 4, 3), trials=100,
        ),
    )
}


def clean_seed(seed: int) -> int:
    return seed + 1


def noise_seed(seed: int) -> int:
    return 100 * seed


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def rmse(estimate: np.ndarray, truth: np.ndarray) -> float:
    return math.sqrt(float(np.mean((estimate - truth) ** 2)))


class Outcome:
    """What one timed operation produced: the values it reports, the digests
    of its outputs, and the checks that failed."""

    def __init__(self) -> None:
        self.values: dict[str, float] = {}
        self.digests: dict[str, str] = {}
        self.problems: list[str] = []

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def check_scene_outputs(scene: Scene, clean: np.ndarray, den_path: str,
                        var_path: str | None) -> Outcome:
    """Read back the written cubes and check them against the clean truth."""
    out = Outcome()
    try:
        den = lrma_uq.io.read_cube(den_path).data
        var = lrma_uq.io.read_cube(var_path).data if var_path else None
    except (ValueError, OSError) as exc:  # read_cube rejects non-finite values
        out.problems.append(f"unreadable output: {exc}")
        return out
    out.require(den.shape == scene.dims, f"denoised dims {den.shape} != {scene.dims}")
    out.require(bool(np.isfinite(den).all()), "denoised cube has non-finite values")
    if out.problems:
        return out
    out.values["rmse"] = rmse(den, clean)
    out.require(out.values["rmse"] < scene.sigma0,
                f"rmse {out.values['rmse']:.4g} is not below sigma0 {scene.sigma0}")
    out.digests["denoised"] = sha256_file(den_path)
    if var is None:
        return out
    out.require(var.shape == scene.dims, f"variance dims {var.shape} != {scene.dims}")
    out.require(bool(np.isfinite(var).all()), "variance cube has non-finite values")
    out.require(bool((var >= 0).all()), "variance cube has negative values")
    if out.problems:
        return out
    covered = np.abs(den - clean) <= Z95 * np.sqrt(var)
    out.values["coverage"] = float(covered.mean())
    out.digests["variance"] = sha256_file(var_path)
    return out


def check_calibration(cal: Calibration, clean: np.ndarray, report) -> Outcome:
    """Check a Monte Carlo report: finite, in range, and denoising helps."""
    out = Outcome()
    samples = report.samples
    coverage = report.coverage.data
    sigma = report.sigma_hat.data
    out.require(samples.shape == (cal.trials,) + cal.dims, f"sample stack shape {samples.shape}")
    out.require(coverage.shape == cal.dims, f"coverage dims {coverage.shape} != {cal.dims}")
    out.require(bool(np.isfinite(samples).all()), "trial estimates have non-finite values")
    out.require(bool(np.isfinite(sigma).all() and (sigma >= 0).all()),
                "closed-form std is negative or non-finite")
    out.require(bool(((coverage >= 0) & (coverage <= 1)).all()), "coverage outside [0, 1]")
    if out.problems:
        return out
    out.values["rmse"] = rmse(samples, clean[None])
    out.require(out.values["rmse"] < cal.sigma0,
                f"rmse {out.values['rmse']:.4g} is not below sigma0 {cal.sigma0}")
    out.values["coverage"] = report.mean_coverage
    out.digests["coverage"] = hashlib.sha256(np.ascontiguousarray(coverage).tobytes()).hexdigest()
    return out


class SceneRun:
    """Input files and timed CLI calls of one scene workload."""

    def __init__(self, scene: Scene, seed: int, workdir: str) -> None:
        self.workload = scene
        self.seed = seed
        self.in_path = os.path.join(workdir, "in.hsic")
        self.den_path = os.path.join(workdir, "denoised.hsic")
        self.var_path = os.path.join(workdir, "variance.hsic")
        self.clean: np.ndarray | None = None

    def setup(self) -> None:
        s = self.workload
        clean = lrma_uq.noise.synth_lowrank_cube(s.dims, s.true_rank, clean_seed(self.seed))
        spec = lrma_uq.noise.NoiseSpec(s.sigma0, s.impulse_ratio, noise_seed(self.seed))
        lrma_uq.io.write_cube(lrma_uq.noise.apply_noise(clean, spec), self.in_path)
        self.clean = clean.data

    def operations(self):
        """(label, call, check) for each timed operation of one repetition."""
        base = ["denoise", "--in", self.in_path, "--out", self.den_path, *self.workload.denoise_flags]
        ops = []
        if self.workload.plain:
            ops.append(("denoise_s", lambda: lrma_uq.cli.main(base),
                        lambda: check_scene_outputs(self.workload, self.clean, self.den_path, None)))
        ops.append(("denoise_uq_s",
                    lambda: lrma_uq.cli.main(base + ["--variance-out", self.var_path]),
                    lambda: check_scene_outputs(self.workload, self.clean, self.den_path, self.var_path)))
        return ops

    def parts(self, label: str, seconds: float) -> dict[str, float]:
        return {label: seconds}


class CalibrationRun:
    """The clean cube and the timed Monte Carlo call of the calibration workload."""

    def __init__(self, cal: Calibration, seed: int, workdir: str) -> None:
        self.workload = cal
        self.seed = seed
        self.clean = None
        self.report = None

    def setup(self) -> None:
        c = self.workload
        self.clean = lrma_uq.noise.synth_lowrank_cube(c.dims, c.true_rank, clean_seed(self.seed))

    def _run(self) -> int:
        c = self.workload
        side, step, rank = c.window
        cfg = PipelineConfig(window=WindowConfig(side, step, rank), sigma0=c.sigma0)
        self.report = lrma_uq.validate.monte_carlo(
            self.clean, lrma_uq.noise.NoiseSpec(sigma0=c.sigma0), cfg,
            trials=c.trials, base_seed=noise_seed(self.seed), sigma_mode="trial0",
            keep_samples=True,
        )
        return 0

    def _check(self) -> Outcome:
        out = check_calibration(self.workload, self.clean.data, self.report)
        self.report = None
        return out

    def operations(self):
        return [("mc_s", self._run, self._check)]

    def parts(self, label: str, seconds: float) -> dict[str, float]:
        """The call's time split into its trials, as monte_carlo timed them,
        and the rest."""
        trials = self.report.trial_seconds
        return {**{f"trial{l}": t for l, t in enumerate(trials)}, "rest": seconds - sum(trials)}


def make_run(name: str, seed: int, workdir: str, workload=None):
    workload = workload or WORKLOADS[name]
    if isinstance(workload, Scene):
        return SceneRun(workload, seed, workdir)
    return CalibrationRun(workload, seed, workdir)
