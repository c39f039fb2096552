"""Experiment harness: the paper's configurations, runner and reports.

``configs``  — the nine evaluated configurations (§IV): NoCkpt, Ckpt and
               ReCkpt in error-free/erroneous and global/local variants;
``runner``   — builds workload programs once, runs configurations on
               demand (inline or over forked workers) and resolves
               them through memo → persistent cache → simulator;
``cache``    — the content-addressed on-disk result cache;
``progress`` — per-run timing and cache hit/miss observability;
``figures``  — one generator per paper figure (6..13);
``tables_``  — Table I and Table II;
``placement``— the paper's future-work extension: recomputation-aware
               checkpoint placement.
"""

from repro.experiments.cache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    run_cache_key,
)
from repro.experiments.configs import (
    CONFIG_NAMES,
    ConfigRequest,
    make_options,
)
from repro.experiments.progress import ProgressTracker, RunRecord
from repro.experiments.runner import ExperimentRunner
from repro.experiments.figures import (
    FigureResult,
    fig1_error_rate,
    fig6_time_overhead,
    fig7_energy_overhead,
    fig8_edp_reduction,
    fig9_checkpoint_size,
    fig10_temporal,
    fig11_error_sweep,
    fig12_frequency_sweep,
    fig13_local,
    scalability,
)
from repro.experiments.placement import PlacementPlan, aware_boundaries
from repro.experiments.tables_ import (
    PAPER_TABLE2,
    table1_configuration,
    table2_threshold_sweep,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "ResultCache",
    "run_cache_key",
    "CONFIG_NAMES",
    "ConfigRequest",
    "make_options",
    "ProgressTracker",
    "RunRecord",
    "ExperimentRunner",
    "FigureResult",
    "fig1_error_rate",
    "fig6_time_overhead",
    "fig7_energy_overhead",
    "fig8_edp_reduction",
    "fig9_checkpoint_size",
    "fig10_temporal",
    "fig11_error_sweep",
    "fig12_frequency_sweep",
    "fig13_local",
    "scalability",
    "PlacementPlan",
    "aware_boundaries",
    "PAPER_TABLE2",
    "table1_configuration",
    "table2_threshold_sweep",
]
