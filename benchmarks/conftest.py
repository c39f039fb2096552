"""Fixtures for the benchmark harness.

One :class:`ExperimentRunner` is shared by every bench in the session, so
each distinct simulation runs exactly once no matter how many figures need
it.  Every bench renders its table to stdout *and* into
``benchmarks/reports/<name>.txt`` so a full run leaves the regenerated
paper artifacts on disk.

Scale knobs (environment):

* ``REPRO_BENCH_SCALE``  — workload region scale (default 1.0, the
  calibrated fidelity; smaller = faster, same shapes);
* ``REPRO_BENCH_CORES``  — core count (default 8, the paper's headline);
* ``REPRO_BENCH_ENGINE`` — execution engine, ``interp`` (default) or
  ``vector`` (bit-identical results, several times faster);
* ``REPRO_BENCH_REPS``   — timesteps per run (default: workload default);
* ``REPRO_BENCH_JOBS``   — worker processes for independent runs
  (default 1 = serial; parallel results are bit-identical);
* ``REPRO_BENCH_CACHE``  — persistent result-cache directory (unset = no
  on-disk cache; a warm cache makes re-runs near-instant);
* ``REPRO_BENCH_TIMEOUT`` — seconds a per-key claim may go without a
  heartbeat before a waiting runner breaks it (unset = 600);
* ``REPRO_BENCH_RESUME`` — non-empty/non-zero skips tasks the completion
  journal already records (needs ``REPRO_BENCH_CACHE``).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from _bench_lib import (
    BENCH_CACHE,
    BENCH_CORES,
    BENCH_ENGINE,
    BENCH_JOBS,
    BENCH_REPS,
    BENCH_RESUME,
    BENCH_SCALE,
    BENCH_TIMEOUT,
    REPORT_DIR,
)
from repro.experiments.runner import ExperimentRunner


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    """The shared, memoising (and optionally parallel/disk-cached)
    experiment runner."""
    return ExperimentRunner(
        num_cores=BENCH_CORES,
        region_scale=BENCH_SCALE,
        reps=BENCH_REPS,
        jobs=BENCH_JOBS,
        cache_dir=BENCH_CACHE,
        lock_stale_s=BENCH_TIMEOUT,
        resume=BENCH_RESUME,
        engine=BENCH_ENGINE,
    )


@pytest.fixture(scope="session")
def report_dir() -> Path:
    REPORT_DIR.mkdir(exist_ok=True)
    return REPORT_DIR


@pytest.fixture()
def emit(report_dir):
    """Print a rendered artifact and persist it under reports/."""

    def _emit(name: str, text: str) -> None:
        print()
        print(text)
        (report_dir / f"{name}.txt").write_text(text + "\n")

    return _emit
