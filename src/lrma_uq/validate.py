"""Monte Carlo validation of the closed-form uncertainty: coverage rates,
Q-Q data against a normal reference, Shapiro-Wilk normality tests, and the
rank / impulse / timing sweeps that exercise the pipeline end to end."""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .cube import HsiCube, _require_counts
from .noise import NoiseSpec, apply_noise
from .pipeline import PipelineConfig, denoise, denoise_with_uq

# Two-sided 95% normal interval half-width in std units.
Z95 = 1.96

_SIGMA_MODES = ("trial0", "per_trial")


@dataclass
class McReport:
    """Summary of a repeated-noise experiment on one clean cube.

    coverage holds, per voxel, the fraction of trials whose estimate landed
    inside +/- 1.96 reference-std of the across-trial mean; samples keeps
    the full (trials, M, N, P) estimate stack when requested.
    """

    trials: int
    sigma0: float
    impulse_ratio: float
    base_seed: int
    sigma_mode: str
    config: PipelineConfig
    coverage: HsiCube
    mean_coverage: float
    std_coverage: float
    trial_seconds: list[float] = field(default_factory=list)
    samples: np.ndarray | None = None
    sigma_hat: HsiCube | None = None

    def csv_table(self) -> tuple[list[str], list[list]]:
        """Header and rows of the report CSV."""
        return (["sigma0", "impulse_ratio", "T", "mean_coverage", "std_coverage"],
                [[self.sigma0, self.impulse_ratio, self.trials,
                  self.mean_coverage, self.std_coverage]])


@dataclass
class NormalityReport:
    """Shapiro-Wilk outcome for one sample; its Q-Q pairs are `qq_data`'s."""

    sw_statistic: float
    p_value: float
    n: int

    def csv_table(self) -> tuple[list[str], list[list]]:
        """Header and rows of the report CSV."""
        return ["n", "sw_statistic", "p_value"], [[self.n, self.sw_statistic, self.p_value]]


@dataclass
class RankSweepReport:
    """Mean coverage per candidate fit rank, other settings held fixed."""

    rows: list[tuple[int, float]]
    sigma0: float
    impulse_ratio: float
    trials: int

    def csv_table(self) -> tuple[list[str], list[list]]:
        """Header and rows of the report CSV, one row per rank in sweep order."""
        return ["rank", "mean_coverage"], [list(r) for r in self.rows]


@dataclass
class ImpulseSweepReport:
    """Coverage summaries over a (sigma0, impulse ratio) grid."""

    rows: list[tuple[float, float, float, float]]
    trials: int

    def csv_table(self) -> tuple[list[str], list[list]]:
        """Header and rows of the report CSV, one row per grid point."""
        return (["sigma0", "impulse_ratio", "mean_coverage", "std_coverage"],
                [list(r) for r in self.rows])


@dataclass
class TimingReport:
    """Wall-clock comparison: trial-based variance estimation vs one
    denoise vs one denoise with the closed-form variance attached."""

    mc_total_s: float
    lrma_only_s: float
    lrma_plus_uq_s: float
    mc_trials: int

    def csv_table(self) -> tuple[list[str], list[list]]:
        """Header and rows of the report CSV."""
        return (["mc_trials", "mc_total_s", "lrma_only_s", "lrma_plus_uq_s"],
                [[self.mc_trials, self.mc_total_s, self.lrma_only_s, self.lrma_plus_uq_s]])


def coverage_rate(samples: np.ndarray, sigma_hat: HsiCube | np.ndarray) -> tuple[HsiCube, float, float]:
    """Fraction of samples within +/- 1.96 sigma_hat of their own mean.

    samples has shape (trials, M, N, P). sigma_hat is an HsiCube, one std
    for every trial, or a (trials, M, N, P) array with one std per trial.
    The interval is centered on the across-trial mean and the boundary
    counts as covered. A zero sigma_hat covers only samples exactly equal
    to the mean. Trials are counted one at a time, so no temporary the
    size of the sample stack is made.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 4 or samples.shape[0] < 2:
        raise ValueError(
            f"samples must be (trials >= 2, M, N, P), got shape {samples.shape}"
        )
    per_trial = not isinstance(sigma_hat, HsiCube)
    sigma = np.asarray(sigma_hat, dtype=np.float64) if per_trial else sigma_hat.data
    want = samples.shape if per_trial else samples.shape[1:]
    if sigma.shape != want:
        raise ValueError(f"sample dims {want} do not match sigma_hat dims {sigma.shape}")
    center = samples.mean(axis=0)
    limit = None if per_trial else Z95 * sigma
    count = np.zeros(center.shape)
    dev = np.empty_like(center)
    for l, sample in enumerate(samples):
        np.abs(np.subtract(sample, center, out=dev), out=dev)
        count += dev <= (Z95 * sigma[l] if per_trial else limit)
    count /= samples.shape[0]
    return HsiCube(count, copy=False), float(count.mean()), float(count.std())


def monte_carlo(
    clean: HsiCube,
    noise: NoiseSpec,
    cfg: PipelineConfig,
    trials: int = 100,
    base_seed: int = 0,
    sigma_mode: str = "trial0",
    keep_samples: bool = False,
) -> McReport:
    """Repeat noise + denoise `trials` times and score interval coverage.

    Trial l is seeded with base_seed + l. The interval std comes from the
    closed-form variance of trial 0 by default ("trial0"), matching the
    single-observation deployment scenario; "per_trial" scores each trial
    against its own variance instead. Coverage is `coverage_rate` of the
    trial stack, called once in either mode. Fixed seeds make the whole run
    bit-reproducible.
    """
    _require_counts(2, trials=trials)
    if sigma_mode not in _SIGMA_MODES:
        raise ValueError(f"sigma_mode must be one of {_SIGMA_MODES}, got {sigma_mode!r}")

    stack = np.empty((trials, *clean.dims))
    per_trial = sigma_mode == "per_trial"
    sigma_stack = np.empty_like(stack) if per_trial else None
    seconds: list[float] = []

    for l in range(trials):
        t0 = time.perf_counter()
        noisy = apply_noise(clean, noise, seed=base_seed + l)
        if per_trial or l == 0:
            den, var = denoise_with_uq(noisy, cfg)
            std = np.sqrt(var.data)
            if l == 0:
                sigma_hat = HsiCube(std, copy=False)
            if per_trial:
                sigma_stack[l] = std
        else:
            den = denoise(noisy, cfg)
        stack[l] = den.data
        seconds.append(time.perf_counter() - t0)

    coverage, mean_c, std_c = coverage_rate(stack, sigma_stack if per_trial else sigma_hat)

    return McReport(
        trials=trials,
        sigma0=noise.sigma0,
        impulse_ratio=noise.impulse_ratio,
        base_seed=base_seed,
        sigma_mode=sigma_mode,
        config=cfg,
        coverage=coverage,
        mean_coverage=mean_c,
        std_coverage=std_c,
        trial_seconds=seconds,
        samples=stack if keep_samples else None,
        sigma_hat=sigma_hat,
    )


def _finite_sample(samples: np.ndarray) -> np.ndarray:
    """The sample as a flat float64 array; nan or inf in it is an error."""
    x = np.asarray(samples, dtype=np.float64).ravel()
    if not np.isfinite(x).all():
        bad = np.count_nonzero(~np.isfinite(x))
        raise ValueError(f"sample has non-finite values ({bad} of {x.size})")
    return x


def qq_data(samples: np.ndarray) -> np.ndarray:
    """Normal Q-Q pairs: column 0 theoretical, column 1 standardized sample.

    Theoretical quantiles use Blom plotting positions (i - 0.375)/(n + 0.25).
    The sample is standardized by the least-squares line of its order
    statistics against those quantiles, so the pairs are exactly invariant
    to sample location and scale, and an exactly normal-scores sample lands
    on the identity line.
    """
    x = _finite_sample(samples)
    n = x.size
    if n < 3:
        raise ValueError(f"need at least 3 samples, got {n}")
    xs = np.sort(x)
    if xs[0] == xs[-1]:
        raise ValueError("sample has zero variance")
    from scipy.stats import norm  # imported here: no denoising path needs scipy

    pos = (np.arange(1, n + 1) - 0.375) / (n + 0.25)
    theo = norm.ppf(pos)
    slope, intercept = np.polyfit(theo, xs, 1)
    emp = (xs - intercept) / slope
    return np.column_stack([theo, emp])


def shapiro_wilk(samples: np.ndarray) -> NormalityReport:
    """Shapiro-Wilk normality test of one sample.

    Valid for 3 <= n <= 5000 (the range of the p-value approximation);
    sizes outside that range, constant samples and nan or inf are errors.
    """
    x = _finite_sample(samples)
    n = x.size
    if not 3 <= n <= 5000:
        raise ValueError(f"sample size must be in [3, 5000], got {n}")
    if x.min() == x.max():
        raise ValueError("sample has zero variance")
    from scipy.stats import shapiro  # imported here: no denoising path needs scipy

    w, p = shapiro(x)
    return NormalityReport(sw_statistic=float(w), p_value=float(p), n=n)


def _sweep(clean: HsiCube, points: list[tuple[PipelineConfig, NoiseSpec]],
           trials: int, base_seed: int) -> Iterator[McReport]:
    """One `monte_carlo` report per (config, noise) point, in order. Every
    point's window is checked against the cube before the first trial."""
    for run_cfg, _ in points:
        run_cfg.window.validate_for(clean.dims)
    for run_cfg, noise in points:
        yield monte_carlo(clean, noise, run_cfg, trials=trials, base_seed=base_seed)


def rank_sweep(
    clean: HsiCube,
    noise: NoiseSpec,
    cfg: PipelineConfig,
    ranks: list[int],
    trials: int = 100,
    base_seed: int = 0,
) -> RankSweepReport:
    """Mean coverage for each candidate rank, all else held fixed.

    The pipeline's sigma0 is synced to the noise recipe so the variance
    model always sees the std that was actually injected. Every rank's
    config is built and checked against the cube before the first trial,
    so a fractional rank is an error, not a truncation.
    """
    points = [
        (replace(cfg, sigma0=noise.sigma0, window=replace(cfg.window, rank=r)), noise)
        for r in ranks
    ]
    reports = _sweep(clean, points, trials, base_seed)
    return RankSweepReport(
        rows=[(int(rep.config.window.rank), rep.mean_coverage) for rep in reports],
        sigma0=noise.sigma0, impulse_ratio=noise.impulse_ratio, trials=trials,
    )


def impulse_sweep(
    clean: HsiCube,
    sigma0_list: list[float],
    ratio_list: list[float],
    cfg: PipelineConfig,
    trials: int = 100,
    base_seed: int = 0,
) -> ImpulseSweepReport:
    """Coverage summaries over the (sigma0, impulse ratio) grid.

    The pipeline's sigma0 follows the grid so each run's variance model
    sees the Gaussian std actually injected at that grid point. Every grid
    point's config and noise recipe are built and checked before the first
    trial.
    """
    points = [
        (replace(cfg, sigma0=float(s0)), NoiseSpec(sigma0=float(s0), impulse_ratio=float(ratio)))
        for s0 in sigma0_list
        for ratio in ratio_list
    ]
    reports = _sweep(clean, points, trials, base_seed)
    rows = [(rep.sigma0, rep.impulse_ratio, rep.mean_coverage, rep.std_coverage) for rep in reports]
    return ImpulseSweepReport(rows=rows, trials=trials)


def timing_compare(
    clean: HsiCube,
    noise: NoiseSpec,
    cfg: PipelineConfig,
    mc_trials: int = 100,
    base_seed: int = 0,
) -> TimingReport:
    """Wall-clock of trial-based variance estimation vs the closed form.

    The trial-based route denoises `mc_trials` fresh corruptions and takes
    their empirical per-voxel variance. It streams: each estimate is added,
    with its square, into two cube-sized sums, and no per-trial stack is
    kept. The closed-form route is a single denoise with the variance
    attached. All three timings use the same clean cube, noise recipe, and
    worker count.
    """
    _require_counts(mc_trials=mc_trials)

    t0 = time.perf_counter()
    total, total_sq = np.zeros((2, *clean.dims))
    for l in range(mc_trials):
        den = denoise(apply_noise(clean, noise, seed=base_seed + l), cfg).data
        total += den
        total_sq += den * den
    # The per-voxel variance: not reported, but the route pays for it.
    np.subtract(total_sq / mc_trials, (total / mc_trials) ** 2, out=total_sq)
    mc_total = time.perf_counter() - t0

    noisy = apply_noise(clean, noise, seed=base_seed)
    t0 = time.perf_counter()
    denoise(noisy, cfg)
    lrma_only = time.perf_counter() - t0

    t0 = time.perf_counter()
    denoise_with_uq(noisy, cfg)
    lrma_plus_uq = time.perf_counter() - t0

    return TimingReport(
        mc_total_s=mc_total,
        lrma_only_s=lrma_only,
        lrma_plus_uq_s=lrma_plus_uq,
        mc_trials=mc_trials,
    )
