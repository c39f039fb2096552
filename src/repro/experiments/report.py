"""Full paper regeneration: every figure and table in one report.

``acr-repro report [--scale S] [--cores N] [--jobs J]`` prints the whole
evaluation section through :func:`generate_report`; the benchmark
harness calls the same generators.

:func:`paper_run_matrix` enumerates every (workload, request) pair the
report needs, so the runner can resolve them up front — in parallel when
``jobs > 1``, and from the persistent cache when one is configured —
before the (cheap, memo-served) generators assemble their tables.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Callable, List, Optional, Tuple, Union

from repro.experiments.configs import ConfigRequest
from repro.experiments.figures import (
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
from repro.experiments.runner import ExperimentRunner
from repro.experiments.tables_ import table1_configuration, table2_threshold_sweep

__all__ = ["generate_report", "paper_run_matrix"]

#: Sweep domains shared by the figure generators' default arguments.
_THRESHOLDS = (10, 20, 30, 40, 50)
_ERROR_COUNTS = (1, 2, 3, 4, 5)
_CHECKPOINT_COUNTS = (25, 50, 75, 100)
_LOCAL_PAIRS = (
    "Ckpt_NE_Loc", "Ckpt_E_Loc", "ReCkpt_NE_Loc", "ReCkpt_E_Loc",
)


def paper_run_matrix(
    runner: ExperimentRunner,
) -> List[Tuple[str, ConfigRequest]]:
    """Every (workload, request) pair the default report touches.

    Mirrors the generators' default arguments exactly — the pairs must
    hash to the same cache keys the generators will ask for, so the
    prefetch pass leaves nothing to simulate afterwards.
    """
    pairs: List[Tuple[str, ConfigRequest]] = []
    for wl in runner.workloads():
        pairs.append((wl, ConfigRequest("NoCkpt")))
        # Figs. 6/7/8/9 + fig 13 globals.
        for cfg in ("Ckpt_NE", "Ckpt_E", "ReCkpt_NE", "ReCkpt_E"):
            pairs.append((wl, runner.default_request(wl, cfg)))
        # Table II (and Fig. 10 for bt): threshold sweep.
        for thr in _THRESHOLDS:
            pairs.append((wl, ConfigRequest("ReCkpt_NE", threshold=thr)))
        # Fig. 11: error sweep.
        for n in _ERROR_COUNTS:
            for cfg in ("Ckpt_E", "ReCkpt_E"):
                pairs.append(
                    (wl, runner.default_request(wl, cfg, error_count=n))
                )
        # Fig. 12: checkpoint-frequency sweep.
        for n in _CHECKPOINT_COUNTS:
            for cfg in ("Ckpt_NE", "ReCkpt_NE"):
                pairs.append(
                    (wl, runner.default_request(wl, cfg, num_checkpoints=n))
                )
        # Fig. 13: local variants.
        for cfg in _LOCAL_PAIRS:
            pairs.append((wl, runner.default_request(wl, cfg)))
    return list(dict.fromkeys(pairs))


def generate_report(
    runner: Optional[ExperimentRunner] = None,
    include_scalability: bool = False,
    stream=None,
    out_dir: Optional[Union[str, Path]] = None,
) -> None:
    """Print every reproduced artifact to ``stream`` (default: stdout).

    With ``out_dir`` set, each artifact is additionally written to
    ``<out_dir>/<name>.txt`` (the same files the benchmark harness
    leaves under ``benchmarks/reports/``).
    """
    stream = stream if stream is not None else sys.stdout
    runner = runner or ExperimentRunner()
    out_path: Optional[Path] = None
    if out_dir is not None:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)

    def emit(name: str, text: str) -> None:
        print(text, file=stream)
        print("", file=stream)
        if out_path is not None:
            (out_path / f"{name}.txt").write_text(text + "\n")

    t0 = time.time()
    # Resolve the whole run matrix first: parallel when jobs > 1, served
    # from the persistent cache when warm, memoised either way — the
    # generators below then assemble tables without simulating.
    runner.run_many(paper_run_matrix(runner))

    artifacts: List[Tuple[str, Callable[[], str]]] = [
        ("table1", lambda: table1_configuration(runner.machine)),
        ("fig01_error_rate", lambda: fig1_error_rate().render()),
        ("fig06_time_overhead", lambda: fig6_time_overhead(runner).render()),
        ("fig07_energy_overhead",
         lambda: fig7_energy_overhead(runner).render()),
        ("fig08_edp", lambda: fig8_edp_reduction(runner).render()),
        ("fig09_ckpt_size", lambda: fig9_checkpoint_size(runner).render()),
        ("table2_threshold", lambda: table2_threshold_sweep(runner).render()),
        ("fig10_temporal", lambda: fig10_temporal(runner).render()),
        ("fig11_error_sweep", lambda: fig11_error_sweep(runner).render()),
        ("fig12_ckpt_freq", lambda: fig12_frequency_sweep(runner).render()),
        ("fig13_local", lambda: fig13_local(runner).render()),
    ]
    if include_scalability:
        artifacts.append(("scalability", lambda: scalability().render()))
    for name, produce in artifacts:
        emit(name, produce())

    summary = runner.progress.summary_table()
    emit("run_summary", summary)
    print(f"[report generated in {time.time() - t0:.1f}s]", file=stream)
