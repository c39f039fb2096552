"""Perf guardrail: the vector engine must stay fast.

CI runs this module on every push (the ``perf-guardrail`` job).  Two
properties are pinned (the engines' bit identity on the same fig6
smoke is a tier-1 test:
``tests/sim/test_engine_equivalence.py::TestFig6SmokeBitIdentity``):

1. **Speedup floor** — interleaved best-of-N timing of the shared-
   simulator hot loop; the vector engine must beat the classic
   observer-callback path (``tests/sim/classic_path.py``, frozen as the
   timed steppers' differential oracle) by ``MIN_SPEEDUP``.  The floor
   is deliberately well below the full-scale speedup recorded in
   ``BENCH_fig06_time_overhead.json`` (~5x): CI machines are noisy and
   small scales dilute the win with fixed costs, and a guardrail that
   cries wolf gets deleted.  The yardstick stays that frozen path: the
   ``interp`` engine's generated timed steppers run close to the vector
   engine, so their ratio is printed, not floored.
2. **Committed snapshots stay valid** — ``BENCH_*.json`` at the repo
   root parse, follow schema v1, contain both engines, agree on their
   checksums (the recorded bit-identity certificate) and record a
   healthy vector speedup.

Scale knobs: ``REPRO_GUARDRAIL_MIN_SPEEDUP`` overrides the floor (CI
hosts differ), ``REPRO_BENCH_*`` the usual harness knobs.
"""

from __future__ import annotations

import gc
import os
import sys
import time
from pathlib import Path

import pytest

from _bench_lib import load_snapshot

from repro.arch.config import MachineConfig
from repro.experiments.configs import ConfigRequest, make_options
from repro.sim.simulator import Simulator
from repro.workloads.registry import get_workload

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.sim.classic_path import run_classic  # noqa: E402

#: The two cheapest registered workloads (smallest regions/site counts).
SMOKE_WORKLOADS = ("cg", "is")

#: Vector-over-interp floor for the CI-scale hot loop.
MIN_SPEEDUP = float(os.environ.get("REPRO_GUARDRAIL_MIN_SPEEDUP", "2.0"))

#: Recorded full-scale floor the committed fig06 snapshot must show.
MIN_COMMITTED_SPEEDUP = 4.0

_SMOKE_CORES = 2
_SMOKE_SCALE = 0.2
_SMOKE_REPS = 12


@pytest.fixture(scope="module", params=SMOKE_WORKLOADS)
def smoke(request):
    spec = get_workload(request.param)
    programs = spec.build_programs(
        _SMOKE_CORES, region_scale=_SMOKE_SCALE, reps=_SMOKE_REPS
    )
    sim = Simulator(programs, MachineConfig(num_cores=_SMOKE_CORES))
    return request.param, spec, sim


class TestSpeedupFloor:
    def test_vector_beats_interpreter(self, smoke):
        workload, spec, sim = smoke
        request = ConfigRequest(
            "ReCkpt_NE", num_checkpoints=4, threshold=spec.default_threshold
        )
        baseline = sim.run(
            make_options(ConfigRequest("NoCkpt"), None, engine="vector")
        ).baseline_profile()
        opts = {
            e: make_options(request, baseline, engine=e)
            for e in ("interp", "vector")
        }
        runs = {
            "classic": lambda: run_classic(sim, opts["interp"]),
            "interp": lambda: sim.run(opts["interp"]),
            "vector": lambda: sim.run(opts["vector"]),
        }
        for run in runs.values():  # warm plans, compile caches, steppers
            run()
        mins = {name: float("inf") for name in runs}
        for _ in range(3):  # interleaved best-of-3
            for name, run in runs.items():
                gc.collect()
                t0 = time.perf_counter()
                run()
                mins[name] = min(mins[name], time.perf_counter() - t0)
        speedup = mins["classic"] / mins["vector"]
        print(
            f"\n{workload}: vector {speedup:.2f}x over the classic path, "
            f"{mins['interp'] / mins['vector']:.2f}x over the timed "
            f"steppers (classic {mins['classic'] * 1e3:.1f} ms, timed "
            f"{mins['interp'] * 1e3:.1f} ms, vector "
            f"{mins['vector'] * 1e3:.1f} ms)"
        )
        assert speedup >= MIN_SPEEDUP, (
            f"{workload}: vector only {speedup:.2f}x over the classic path "
            f"(classic {mins['classic'] * 1e3:.1f} ms, "
            f"vector {mins['vector'] * 1e3:.1f} ms, floor {MIN_SPEEDUP}x)"
        )


class TestCommittedSnapshots:
    @pytest.mark.parametrize("name", ("fig06_time_overhead",))
    def test_schema_and_identity(self, name):
        entries = load_snapshot(name)
        assert entries, f"BENCH_{name}.json missing — run snapshot_engines.py"
        by_engine = {}
        for entry in entries:
            assert entry["schema"] == 1
            assert entry["bench"] == name
            assert entry["wall_s"] > 0
            assert len(entry["results_sha256"]) == 64
            by_engine[entry["engine"]] = entry
        assert set(by_engine) == {"interp", "vector"}
        # The recorded bit-identity certificate.
        assert (
            by_engine["interp"]["results_sha256"]
            == by_engine["vector"]["results_sha256"]
        )
        assert by_engine["vector"]["wall_s"] < by_engine["interp"]["wall_s"]
        # Coverage trajectory: the vector entry records its replayed /
        # fallback counters, and every fallback names a certificate rule.
        coverage = by_engine["vector"]["vector_coverage"]
        assert coverage["replayed_iterations"] > 0
        for key in coverage:
            if key.startswith("fallback."):
                assert key.removeprefix("fallback.").startswith("ACR"), key

    def test_fig06_records_healthy_speedup(self):
        entries = load_snapshot("fig06_time_overhead")
        assert entries
        vector = next(e for e in entries if e["engine"] == "vector")
        assert vector["speedup_vs_interp"] >= MIN_COMMITTED_SPEEDUP


class TestCampaignForkSnapshot:
    """``BENCH_inject_campaign.json`` compares campaign *schedules*
    (straight O(N·T) vs fork-from-snapshot O(T + N·tail)) on one
    engine, so it gets its own shape checks rather than riding the
    engine-pair assertions above."""

    #: Recorded fork-over-straight floor the committed snapshot must
    #: show (the tentpole's acceptance bar).
    MIN_FORK_SPEEDUP = 3.0

    def test_schema_identity_and_speedup(self):
        entries = load_snapshot("inject_campaign")
        assert entries, (
            "BENCH_inject_campaign.json missing — run "
            "bench_inject_campaign.py"
        )
        by_mode = {}
        for entry in entries:
            assert entry["schema"] == 1
            assert entry["bench"] == "inject_campaign"
            assert entry["wall_s"] > 0
            assert len(entry["results_sha256"]) == 64
            assert entry["trials_per_config"] >= 16
            by_mode[entry["mode"]] = entry
        assert set(by_mode) == {"straight", "forked"}
        # The recorded bit-identity certificate: forking trials from
        # golden boundary snapshots changed nothing in the results.
        assert (
            by_mode["straight"]["results_sha256"]
            == by_mode["forked"]["results_sha256"]
        )
        assert by_mode["forked"]["wall_s"] < by_mode["straight"]["wall_s"]
        assert (
            by_mode["forked"]["speedup_vs_straight"] >= self.MIN_FORK_SPEEDUP
        )
