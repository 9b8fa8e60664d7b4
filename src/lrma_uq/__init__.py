"""Sliding-window low-rank denoising of hyperspectral cubes with a
closed-form per-voxel variance cube, plus the Monte Carlo machinery to
validate that the variances are calibrated."""

from .cube import HsiCube, VoxelIndex, extract_patch, hadamard_divide, scatter_add_patch
from .io import (
    BadMagicError,
    ContainerError,
    TruncatedPayloadError,
    UnknownDtypeError,
    read_cube,
    write_cube,
    write_qq_csv,
    write_report_csv,
)
from .lowrank import (
    GodecResult,
    LowRankFactors,
    godec,
    truncated_svd,
    truncated_svd_batch,
)
from .noise import NoiseSpec, add_gaussian, add_impulse, apply_noise, synth_lowrank_cube
from .pipeline import PipelineConfig, denoise, denoise_with_uq
from .uncertainty import aggregate_variance, overlap_ratio
from .validate import (
    ImpulseSweepReport,
    McReport,
    NormalityReport,
    RankSweepReport,
    TimingReport,
    Z95,
    coverage_rate,
    impulse_sweep,
    monte_carlo,
    qq_data,
    rank_sweep,
    shapiro_wilk,
    timing_compare,
)
from .windows import (
    PatchGrid,
    WindowConfig,
    aggregate_mean,
    enumerate_patches,
    patch_to_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "HsiCube",
    "VoxelIndex",
    "extract_patch",
    "hadamard_divide",
    "scatter_add_patch",
    "ContainerError",
    "BadMagicError",
    "UnknownDtypeError",
    "TruncatedPayloadError",
    "write_cube",
    "read_cube",
    "write_report_csv",
    "write_qq_csv",
    "WindowConfig",
    "PatchGrid",
    "enumerate_patches",
    "patch_to_matrix",
    "aggregate_mean",
    "LowRankFactors",
    "GodecResult",
    "truncated_svd",
    "truncated_svd_batch",
    "godec",
    "overlap_ratio",
    "aggregate_variance",
    "NoiseSpec",
    "synth_lowrank_cube",
    "add_gaussian",
    "add_impulse",
    "apply_noise",
    "PipelineConfig",
    "denoise",
    "denoise_with_uq",
    "Z95",
    "McReport",
    "NormalityReport",
    "RankSweepReport",
    "ImpulseSweepReport",
    "TimingReport",
    "coverage_rate",
    "monte_carlo",
    "qq_data",
    "shapiro_wilk",
    "rank_sweep",
    "impulse_sweep",
    "timing_compare",
    "__version__",
]
