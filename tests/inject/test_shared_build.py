"""BER and ACR trials of one workload share one raw build in-process.

The harness memoizes the raw ``build_programs`` output per (workload,
cores, scale, reps) and compiles the ACR copy through the simulator's
per-program compile cache.  Sharing is only sound while nothing mutates
a shared program, so this pins three things on the forked plan: one
build serves both recipes, the shared programs still equal a fresh
build afterwards, and the trials equal the straight (unforked) run.
"""

from __future__ import annotations

import pytest

from repro.compiler.policy import ThresholdPolicy
from repro.inject import harness
from repro.inject.campaign import build_trials
from repro.inject.harness import run_trial
from repro.sim.simulator import _compile_cached
from repro.workloads import get_workload
from repro.workloads.spec import WorkloadSpec

WORKLOAD = "cg"


@pytest.fixture(autouse=True)
def clean_memos():
    harness._BUILD_MEMO.clear()
    harness._GOLDEN_MEMO.clear()
    yield
    harness._BUILD_MEMO.clear()
    harness._GOLDEN_MEMO.clear()


def _program_view(program):
    return (program.thread_id, program.kernels, program.store_sites)


def test_ber_and_acr_share_one_build(monkeypatch):
    specs = build_trials([WORKLOAD], trials=2, region_scale=0.05, reps=2)
    ber = [s for s in specs if s.config == "BER"]
    acr = [s for s in specs if s.config == "ACR"]
    assert ber and acr

    builds = []
    real_build = WorkloadSpec.build_programs

    def counting_build(self, *args, **kwargs):
        programs = real_build(self, *args, **kwargs)
        builds.append(programs)
        return programs

    monkeypatch.setattr(WorkloadSpec, "build_programs", counting_build)
    forked = [run_trial(s, snapshots=True) for s in ber + acr]
    assert len(builds) == 1
    (raw,) = builds

    # BER ran the raw programs themselves, ACR their cached compiled copy.
    ber_programs, ber_tables, _ = harness._compiled(ber[0])
    assert ber_tables is None
    assert all(a is b for a, b in zip(ber_programs, raw))
    acr_programs, acr_tables, _ = harness._compiled(acr[0])
    policy = ThresholdPolicy(get_workload(WORKLOAD).default_threshold)
    for program, compiled_program, table in zip(raw, acr_programs,
                                                acr_tables):
        cached = _compile_cached(program, policy)
        assert cached.program is compiled_program
        assert cached.slices is table
    assert len(builds) == 1

    # Nothing mutated the shared raw programs.
    monkeypatch.setattr(WorkloadSpec, "build_programs", real_build)
    fresh = get_workload(WORKLOAD).build_programs(
        ber[0].num_cores, region_scale=ber[0].region_scale, reps=ber[0].reps
    )
    assert [_program_view(p) for p in raw] == [
        _program_view(p) for p in fresh
    ]

    # The shared build changes no result.
    straight = [run_trial(s, snapshots=False) for s in ber + acr]
    assert [t.to_dict() for t in forked] == [t.to_dict() for t in straight]
