"""Regenerate the committed fig6 engine-trajectory snapshot.

Usage::

    PYTHONPATH=src python benchmarks/snapshot_engines.py [--quick]

Writes ``BENCH_fig06_time_overhead.json`` at the repository root: one
entry per engine, schema v1 (see :func:`_bench_lib.bench_snapshot`).
The protocol is tuned for honest engine-to-engine comparison rather
than cold-start realism:

* one shared :class:`Simulator` per workload — compile caches and trace
  plans are warm for both engines, so the timed region is the simulation
  hot loop the engines actually differ in;
* interleaved best-of-N sampling (A/B/A/B), the classic low-noise
  estimator, so allocator growth and frequency scaling spread across
  both series instead of biasing one;
* every run's ``RunResult.to_dict()`` feeds a per-engine checksum, and
  the generator *refuses to write* snapshots whose engines disagree —
  a committed snapshot is therefore also a bit-identity certificate.

``--quick`` shrinks scale/reps for a fast smoke of the generator itself;
committed snapshots must come from a default run.
"""

from __future__ import annotations

import gc
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _bench_lib import bench_snapshot, results_checksum, write_snapshot

from repro.arch.config import MachineConfig
from repro.experiments.configs import ConfigRequest, make_options
from repro.sim.simulator import Simulator
from repro.workloads.nas import NAS_BENCHMARKS
from repro.workloads.registry import get_workload

#: Figure-6 snapshot protocol (full scale, bounded reps: engine walls in
#: minutes, not hours; ``reps`` is recorded in the snapshot).
CORES = 8
SCALE = 1.0
REPS = 60
PAIRS = 2
CONFIGS = ("NoCkpt", "Ckpt_NE", "ReCkpt_NE", "Ckpt_E", "ReCkpt_E")


def _timed(fn):
    gc.collect()
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def snapshot_fig06(quick: bool = False):
    cores = 2 if quick else CORES
    scale = 0.1 if quick else SCALE
    reps = 4 if quick else REPS
    walls = {"interp": {}, "vector": {}}
    digests = {"interp": {}, "vector": {}}
    coverage: dict = {}

    for wl in sorted(NAS_BENCHMARKS):
        spec = get_workload(wl)
        programs = spec.build_programs(cores, region_scale=scale, reps=reps)
        sim = Simulator(programs, MachineConfig(num_cores=cores))
        requests = [
            ConfigRequest(name, threshold=spec.default_threshold)
            for name in CONFIGS
        ]

        def run_all(engine, collect_coverage=False):
            results = {}
            baseline = None
            for request in requests:
                res = sim.run(make_options(request, baseline, engine=engine))
                if request.is_baseline:
                    baseline = res.baseline_profile()
                results[request.config] = res.to_dict()
                # Coverage is diagnostic (outside to_dict, so outside the
                # digest); observed baseline runs report none.  Collected
                # on the warm pass only — the timed repeats would just
                # multiply identical counts.
                if collect_coverage and res.vector_coverage is not None:
                    for key, count in res.vector_coverage.items():
                        coverage[key] = coverage.get(key, 0) + count
            return results

        # Warm plans + compile caches for both series.
        run_all("vector", collect_coverage=True)
        mins = {"interp": float("inf"), "vector": float("inf")}
        for _ in range(PAIRS):
            for engine in ("interp", "vector"):
                payload = {}

                def timed_run(engine=engine, payload=payload):
                    payload.update(run_all(engine))

                mins[engine] = min(mins[engine], _timed(timed_run))
                digests[engine][wl] = results_checksum(payload)
        for engine in ("interp", "vector"):
            walls[engine][wl] = round(mins[engine], 3)
        if digests["interp"][wl] != digests["vector"][wl]:
            raise SystemExit(
                f"ENGINE DIVERGENCE on {wl}: refusing to write snapshot"
            )
        speedup = mins["interp"] / mins["vector"]
        print(
            f"fig06 {wl}: interp {mins['interp']:.2f}s  "
            f"vector {mins['vector']:.2f}s  ({speedup:.2f}x)",
            flush=True,
        )

    entries = []
    total = {e: sum(walls[e].values()) for e in walls}
    for engine in ("interp", "vector"):
        extra = {"configs": list(CONFIGS), "per_workload_s": walls[engine]}
        if engine == "vector":
            extra["speedup_vs_interp"] = round(total["interp"] / total["vector"], 2)
        entries.append(
            bench_snapshot(
                "fig06_time_overhead",
                engine,
                total[engine],
                results_checksum(digests[engine]),
                extra=extra,
                scale=scale,
                cores=cores,
                reps=reps,
                vector_coverage=coverage if engine == "vector" else None,
            )
        )
    return entries


def main(argv):
    quick = "--quick" in argv
    print(
        "wrote "
        f"{write_snapshot('fig06_time_overhead', snapshot_fig06(quick))}"
    )


if __name__ == "__main__":
    main(sys.argv[1:])
