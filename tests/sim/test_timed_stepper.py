"""Differential test: each shape's timed stepper against the classic
observer-callback path.

The oracle is :class:`tests.sim.classic_path.ClassicRun`, a frozen copy
of the path the timed steppers replace (per-access events,
``CoreCacheHierarchy.access``, ``stall_time_ns``, ``record_access`` and
``Mechanism.on_store``).  Under hypothesis, over the engine suite's
random programs, both runs of one configuration are stepped through the
same random chunk split, with boundaries between chunks, and after every
chunk of every core they must agree on:

* every cache set's LRU order, the dirty sets and every cache and
  hierarchy counter;
* the pending useful/overhead stall accumulators, bit for bit;
* the mechanism's state: memory, log bits, the open and retained logs
  (records and omissions), AddrMap generations, operand buffers and the
  handler's counters (one :func:`tests.sim.full_snapshot.capture`
  each);
* the directory's communication tracking under ``scheme="local"`` (the
  timed steppers track it only there: its one reader is local
  coordination and recovery);
* with a tracer attached, every event emitted so far.

Schemes none/global/local, BER and ACR, observed and unobserved runs,
and tiny machines (evictions and dirty write-backs on most accesses,
latencies whose stall constants are not the simplified ``l2 / mlp``,
rejected associations) are all drawn.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.arch.config import CacheConfig, MachineConfig
from repro.arch.core import CoreTimingModel
from repro.compiler.policy import ThresholdPolicy
from repro.errors.injection import UniformErrors
from repro.obs.tracer import RecordingTracer
from repro.sim.simulator import SimulationOptions, Simulator, _Run
from tests.sim.classic_path import ClassicRun, run_classic
from tests.sim.full_snapshot import capture
from tests.sim.test_engine_equivalence import NUM_CORES, _random_programs

#: Caches small enough that the random programs evict from both levels,
#: with latencies for which the stall constants' expression shape
#: matters (``(l1 + l2) - l1 != l2`` here, unlike at Table I's
#: 3.66/24.77 ns), and an AddrMap and operand buffer small enough to
#: reject associations.
_TINY_MACHINE = dict(
    l1d=CacheConfig("L1-D", 1024, 2, 4.1),
    l2=CacheConfig("L2", 4096, 4, 24.7),
    addrmap_capacity=4,
    operand_buffer_capacity=10,
)


def _cache_state(cache):
    sets, _, _, dirty = cache.internal_state()
    return (
        [None if s is None else list(s) for s in sets],
        set(dirty),
        (cache.hits, cache.misses, cache.evictions, cache.dirty_evictions),
    )


def _state(run: _Run, scheme: str):
    """Everything a chunk may change, in comparable form."""
    machine = run.machine
    caches = [
        (_cache_state(h.l1d), _cache_state(h.l2), h.memory_accesses,
         h.writebacks)
        for h in machine.hierarchies
    ]
    pending = [x.hex() for x in run._pending_useful + run._pending_overhead]
    snap = capture(run.mech)
    comm = None
    if scheme == "local":
        toucher, edges = machine.directory.comm_state()
        comm = (dict(toucher), set(edges))
    events = None if run.tracer is None else list(run.tracer.events)
    return caches, pending, snap, comm, events


def _drain(run: _Run) -> None:
    """Move the pending stalls onto the clocks, as ``_run_core_to`` does
    after each chunk."""
    for core in range(run.config.num_cores):
        run.useful[core] += run._pending_useful[core]
        run.overhead[core] += run._pending_overhead[core]
        run._pending_useful[core] = 0.0
        run._pending_overhead[core] = 0.0


def test_tiny_machine_stall_constants_are_not_simplified():
    l2_stall, mem_stall = CoreTimingModel(
        MachineConfig(num_cores=NUM_CORES, **_TINY_MACHINE)
    ).miss_stalls_ns()
    mlp = MachineConfig(num_cores=NUM_CORES).mlp
    assert l2_stall != 24.7 / mlp
    assert mem_stall != (24.7 + 120.0) / mlp


_CONFIGS = st.sampled_from(
    [("none", False), ("global", False), ("global", True), ("local", False),
     ("local", True)]
)


@given(
    st.integers(0, 10**6),
    _CONFIGS,
    st.booleans(),
    st.booleans(),
    st.lists(st.integers(1, 40), min_size=1, max_size=6),
    st.integers(1, 4),
    st.integers(1, 12),
    st.integers(0, 2),
)
@settings(max_examples=120, deadline=None)
def test_timed_stepper_matches_classic_path(
    seed, config, observed, tiny, chunks, boundary_every, threshold,
    memory_seed,
):
    scheme, acr = config
    machine = MachineConfig(num_cores=NUM_CORES, **(_TINY_MACHINE if tiny else {}))
    sim = Simulator(_random_programs(seed), machine)
    baseline = None
    if scheme != "none":
        baseline = sim.run_baseline(memory_seed=memory_seed).baseline_profile()

    def options():
        return SimulationOptions(
            scheme=scheme, acr=acr, baseline=baseline,
            slice_policy=ThresholdPolicy(threshold), memory_seed=memory_seed,
            tracer=RecordingTracer() if observed else None,
        )

    timed, classic = _Run(sim, options()), ClassicRun(sim, options())
    assert timed.interpreters[0].timing is not None
    assert classic.interpreters[0].timing is None
    step = 0
    while not all(e.done for e in timed.engines):
        for core in range(NUM_CORES):
            budget = chunks[step % len(chunks)]
            a = timed.engines[core]
            b = classic.engines[core]
            assert a.done == b.done
            if a.done:
                continue
            assert a.step_iterations(budget) == b.step_iterations(budget)
            assert a.position == b.position
            assert _state(timed, scheme) == _state(classic, scheme), (
                f"seed={seed} step={step} core={core}"
            )
        step += 1
        if step % boundary_every == 0:
            _drain(timed)
            _drain(classic)
            if scheme != "none":
                mark = float(step)
                timed._do_checkpoint(mark)
                classic._do_checkpoint(mark)
                assert _state(timed, scheme) == _state(classic, scheme)
    assert all(e.done for e in classic.engines)


@given(st.integers(0, 10**6), _CONFIGS, st.booleans())
@settings(max_examples=25, deadline=None)
def test_whole_runs_match_classic_path(seed, config, tiny):
    """Whole runs, boundaries and recoveries at their scheduled times,
    agree payload for payload."""
    scheme, acr = config
    machine = MachineConfig(num_cores=NUM_CORES, **(_TINY_MACHINE if tiny else {}))
    sim = Simulator(_random_programs(seed), machine)
    base = sim.run_baseline()
    assert base.to_dict() == run_classic(sim, SimulationOptions(
        label="NoCkpt", scheme="none")).to_dict()
    if scheme == "none":
        return
    options = SimulationOptions(
        scheme=scheme, acr=acr, baseline=base.baseline_profile(),
        num_checkpoints=2 + seed % 4, errors=UniformErrors(1 + seed % 2),
        slice_policy=ThresholdPolicy(2 + seed % 9),
    )
    assert sim.run(options).to_dict() == run_classic(sim, options).to_dict()
    # The vector engine's fallbacks run the same timed steppers.
    vector = dataclasses.replace(options, engine="vector")
    assert sim.run(vector).to_dict() == run_classic(sim, options).to_dict()
