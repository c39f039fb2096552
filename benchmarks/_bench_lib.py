"""Shared constants and helpers for the benchmark harness.

Kept outside ``conftest.py`` so bench modules can import them without
relying on conftest's module-name handling.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
from pathlib import Path

REPORT_DIR = Path(__file__).parent / "reports"
#: Committed machine-readable bench snapshots (BENCH_<name>.json) live at
#: the repo root so their diffs ride along with the code that moved them.
SNAPSHOT_DIR = Path(__file__).parent.parent

#: Workload region scale (1.0 = the calibrated fidelity).
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
#: Execution engine for every simulation in the session ("interp" or
#: "vector"; results are bit-identical, only the wall time changes).
BENCH_ENGINE = os.environ.get("REPRO_BENCH_ENGINE", "interp")
#: Core count for the headline experiments.
BENCH_CORES = int(os.environ.get("REPRO_BENCH_CORES", "8"))
_reps_env = os.environ.get("REPRO_BENCH_REPS", "")
#: Timesteps per run (None = the workload default).
BENCH_REPS = int(_reps_env) if _reps_env else None
#: Worker processes for independent runs (1 = serial, the default).
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
#: Persistent result-cache directory ("" = no on-disk cache).
_cache_env = os.environ.get("REPRO_BENCH_CACHE", "")
BENCH_CACHE = Path(_cache_env) if _cache_env else None
#: Seconds before an unheartbeaten per-key claim is broken ("" = 600).
_timeout_env = os.environ.get("REPRO_BENCH_TIMEOUT", "")
BENCH_TIMEOUT = float(_timeout_env) if _timeout_env else 600.0


def run_once(benchmark, fn):
    """Time ``fn`` exactly once (simulations are heavy and memoised)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def _git_commit() -> str:
    """The current commit hash, or "unknown" outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).parent,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def results_checksum(payload) -> str:
    """Engine-independent digest of a bench's simulation results.

    ``payload`` must be JSON-serialisable (typically a dict of
    ``RunResult.to_dict()`` outputs or a figure's series).  Two engines
    producing the same checksum produced bit-identical results — this is
    the datum the perf guardrail compares across engines.
    """
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def bench_snapshot(
    name: str,
    engine: str,
    wall_s: float,
    checksum: str,
    extra: dict | None = None,
    scale: float | None = None,
    cores: int | None = None,
    reps: int | None = None,
    vector_coverage: dict | None = None,
) -> dict:
    """One engine's entry of a ``BENCH_<name>.json`` snapshot.

    The schema is deliberately small and stable so snapshots diff
    cleanly across commits: identity (bench, engine, commit), scale
    knobs, one wall-clock number and the results checksum.  Wall times
    are machine-dependent — comparisons should be *relative* (engine vs
    engine on the same host, or tolerance bands), never absolute.
    ``scale``/``cores``/``reps`` default to the session's environment
    knobs; pass them explicitly when the producer used its own protocol.

    ``vector_coverage`` (vector-engine entries only) records the
    replayed/fallback iteration counters — with fallbacks keyed by
    certificate-denial reason — so snapshot diffs show coverage
    trajectory alongside wall time.  Additive: schema stays v1.
    """
    doc = {
        "schema": 1,
        "bench": name,
        "engine": engine,
        "commit": _git_commit(),
        "scale": BENCH_SCALE if scale is None else scale,
        "cores": BENCH_CORES if cores is None else cores,
        "reps": BENCH_REPS if reps is None else reps,
        "wall_s": round(wall_s, 6),  # µs resolution: micro benches are sub-ms
        "results_sha256": checksum,
    }
    if vector_coverage is not None:
        doc["vector_coverage"] = vector_coverage
    if extra:
        doc.update(extra)
    return doc


def write_snapshot(name: str, entries: list) -> Path:
    """Write ``BENCH_<name>.json`` (one entry per engine measured)."""
    path = SNAPSHOT_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n")
    return path


def load_snapshot(name: str):
    """The committed ``BENCH_<name>.json`` entries (None when absent)."""
    path = SNAPSHOT_DIR / f"BENCH_{name}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())
