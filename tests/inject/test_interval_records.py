"""Interval records against the full-copy oracle, at every boundary.

A golden pass records one :class:`~repro.sim.snapshot.IntervalRecord`
per closed interval; boundary ``m`` is restored from the first ``m``
of them.  The oracle (:mod:`tests.sim.full_snapshot`) copies the whole
state at each boundary instead.  For random programs and every
registered workload, under BER and ACR, at every boundary:

* the state restored from the records, live or decoded from bytes,
  equals the oracle's capture: memory items in insertion order, the
  retained logs, the entry identity graph, the AddrMap generations,
  every counter, the architectural state and its history;
* a pass resumed from there ends on the golden's final memory image and
  step (and, from the middle boundary, captures the golden's state at
  every later one);

and a trial forked from the records reports exactly what the same
trial run straight through reports.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.config import MachineConfig
from repro.compiler.policy import ThresholdPolicy
from repro.inject import harness
from repro.inject.harness import (
    TrialSpec,
    _compiled,
    _MechanismPass,
    run_trial,
)
from repro.sim.mechanism import SnapshotRecorder
from repro.sim.simulator import _compile_cached
from repro.sim.snapshot import SimHistory
from repro.workloads import all_workload_names
from tests.sim.full_snapshot import capture_pass
from tests.sim.test_engine_equivalence import NUM_CORES, _random_programs


def _record(spec, compiled):
    """The golden pass and its history, recorded as :func:`run_golden`
    records it: nothing else allocates between two boundaries, so an
    entry freed mid-run leaves its memory (and its id) to the next."""
    golden = _MechanismPass(spec, *compiled)
    recorder = SnapshotRecorder(golden.mech, golden.initial_arch)
    golden.run_to_end(lambda: golden.record_boundary(recorder))
    return golden, recorder.history()


def _captures(spec, compiled):
    """The oracle's capture at every boundary of a second golden pass."""
    golden = _MechanismPass(spec, *compiled)
    captures = [capture_pass(golden)]
    golden.run_to_end(lambda: captures.append(capture_pass(golden)))
    return captures


def check_every_boundary(spec, compiled):
    golden, history = _record(spec, compiled)
    captures = _captures(spec, compiled)
    assert len(history.intervals) == len(captures) - 1
    decoded = SimHistory.from_bytes(history.to_bytes())
    final = list(golden.memory.words_map().items())
    for m, want in enumerate(captures):
        for source in (history, decoded):
            child = _MechanismPass(spec, *compiled)
            child.restore_snapshot(source, m)
            assert capture_pass(child) == want, f"boundary {m}"
        later = []
        if m == len(captures) // 2:
            child.run_to_end(lambda: later.append(capture_pass(child)))
            assert later == captures[m + 1:], f"resumed from boundary {m}"
        child.run_to_end()
        assert list(child.memory.words_map().items()) == final, m
        assert child.steps == golden.steps
    return history


def _random_recipe(seed, acr, threshold, memory_seed, spi, ips):
    spec = TrialSpec(
        workload="random", config="ACR" if acr else "BER",
        num_cores=NUM_CORES, steps_per_interval=spi, iters_per_step=ips,
        memory_seed=memory_seed,
    )
    programs = _random_programs(seed)
    config = MachineConfig(num_cores=NUM_CORES)
    if not acr:
        return spec, (programs, None, config)
    compiled = [_compile_cached(p, ThresholdPolicy(threshold))
                for p in programs]
    return spec, ([c.program for c in compiled],
                  [c.slices for c in compiled], config)


@given(
    st.integers(0, 10**6),
    st.booleans(),
    st.integers(1, 12),
    st.integers(0, 2),
    st.integers(1, 3),
    st.integers(2, 8),
)
@settings(max_examples=80, deadline=None)
def test_random_programs_restore_every_boundary(
    seed, acr, threshold, memory_seed, spi, ips
):
    check_every_boundary(
        *_random_recipe(seed, acr, threshold, memory_seed, spi, ips)
    )


@pytest.mark.parametrize("config", ["BER", "ACR"])
@pytest.mark.parametrize("workload", all_workload_names())
def test_workloads_restore_every_boundary(workload, config):
    spec = TrialSpec(workload=workload, config=config)
    history = check_every_boundary(spec, _compiled(spec))
    assert len(history.intervals) >= 2
    assert bool(history.entries) == (config == "ACR")
    # A whole image with deltas after it: a fold starts mid-history.
    assert any(r.whole for r in history.intervals[1:-1])


@given(
    st.sampled_from(all_workload_names()),
    st.sampled_from(["BER", "ACR"]),
    st.sampled_from(harness.TARGET_KINDS),
    st.integers(0, 10**4),
)
@settings(max_examples=40, deadline=None)
def test_forked_trial_equals_straight(workload, config, target, seed):
    spec = TrialSpec(workload=workload, config=config, target=target,
                     seed=seed)
    forked = run_trial(spec, snapshots=True)
    assert forked.to_dict() == run_trial(spec).to_dict()



def _restore_each_arch_row(spec, compiled) -> int:
    """Restore every architectural row of the golden history, live and
    decoded from bytes, onto a fresh pass's interpreters and check that
    each reads back unchanged; returns how many rows were of a finished
    core."""
    _, history = _record(spec, compiled)
    decoded = SimHistory.from_bytes(history.to_bytes())
    interpreters = _MechanismPass(spec, *compiled).interpreters
    finished = 0
    for source in (history, decoded):
        rows = [source.initial_arch]
        rows += [record.arch for record in source.intervals]
        for states in rows:
            for it, (kernel, iteration, regs) in zip(interpreters, states):
                it.restore_arch_state((kernel, iteration, regs))
                assert it.arch_state() == (kernel, iteration, list(regs))
                finished += it.done
    return finished


def test_restoring_an_arch_row_restores_exactly_that_row():
    """Every golden history row reads back after a restore, a finished
    core's iteration and registers included: random programs (whose
    cores finish at different times) and every registered workload."""
    finished = 0
    for seed in range(8):
        for acr in (False, True):
            finished += _restore_each_arch_row(
                *_random_recipe(seed, acr, 4, 0, 2, 4))
    for workload in all_workload_names():
        for config in ("BER", "ACR"):
            spec = TrialSpec(workload=workload, config=config)
            _restore_each_arch_row(spec, _compiled(spec))
    assert finished > 0
