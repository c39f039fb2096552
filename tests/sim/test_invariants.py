"""Property-based simulator invariants.

Hypothesis drives small randomized workloads through the full stack and
checks the invariants that must hold for *any* program: clock and energy
sanity, conservation between the ACR and baseline variants, the
accounting identities the paper's equations rest on, and the rollback
law of the mechanism core.  Every simulator example runs on both
execution engines, so each engine gets the full example budget.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.config import MachineConfig
from repro.ckpt.checkpoint import RETAINED_CHECKPOINTS
from repro.ckpt.recovery import RecoveryEngine
from repro.compiler.embed import compile_program
from repro.compiler.policy import ThresholdPolicy
from repro.errors.injection import UniformErrors
from repro.inject.harness import _RESTORES
from repro.isa.interpreter import Interpreter, MemoryImage
from repro.sim.mechanism import Mechanism
from repro.sim.simulator import ENGINES, SimulationOptions, Simulator
from repro.workloads.spec import BurstSpec, SliceLenBucket, WorkloadSpec
from tests.conftest import recording_caches, tiny_workload


@st.composite
def workload_specs(draw):
    """Small but structurally diverse workload specs."""
    w1 = draw(st.floats(min_value=0.1, max_value=0.6))
    w2 = draw(st.floats(min_value=0.1, max_value=min(0.8 - w1, 0.5)))
    copy = draw(st.floats(min_value=0.0, max_value=0.1))
    accum = draw(st.floats(min_value=0.0, max_value=0.1))
    bursts = ()
    if draw(st.booleans()):
        bursts = (
            BurstSpec(
                draw(st.floats(min_value=0.2, max_value=0.8)),
                draw(st.floats(min_value=0.5, max_value=2.0)),
                draw(st.sampled_from(["copy", "chain", "widen"])),
                passes=draw(st.integers(min_value=1, max_value=3)),
            ),
        )
    return WorkloadSpec(
        name="prop",
        region_words=draw(st.integers(min_value=24, max_value=48)),
        reps=draw(st.integers(min_value=8, max_value=16)),
        sites=draw(st.integers(min_value=4, max_value=8)),
        ghost_alu=draw(st.integers(min_value=0, max_value=30)),
        len_mix=(
            SliceLenBucket(w1, 2, 10),
            SliceLenBucket(w2, 11, 25),
        ),
        copy_frac=copy,
        accum_frac=accum,
        sparse_frac=draw(st.floats(min_value=0.0, max_value=1.0)),
        cluster_size=draw(st.sampled_from([0, 1, 2])),
        bursts=bursts,
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )


def run_trio(spec, num_checkpoints=5, errors=None, engine="interp"):
    cfg = MachineConfig(num_cores=2)
    programs = spec.build_programs(2)
    sim = Simulator(programs, cfg)
    base = sim.run(
        SimulationOptions(label="NoCkpt", scheme="none", engine=engine)
    )
    prof = base.baseline_profile()
    common = dict(
        num_checkpoints=num_checkpoints,
        baseline=prof,
        engine=engine,
    )
    if errors:
        common["errors"] = errors
    ck = sim.run(SimulationOptions(label="ck", scheme="global", **common))
    re = sim.run(
        SimulationOptions(
            label="re",
            scheme="global",
            acr=True,
            slice_policy=ThresholdPolicy(10),
            **common,
        )
    )
    return base, ck, re


def trios(spec, **kwargs):
    """:func:`run_trio` on every engine."""
    return [run_trio(spec, engine=engine, **kwargs) for engine in ENGINES]


def log_addresses(log):
    """Every address an interval log logged or omitted, in order."""
    return [r.address for r in log.records] + [o.address for o in log.omitted]


class TestSimulationInvariants:
    @given(workload_specs())
    @settings(max_examples=12, deadline=None)
    def test_clock_and_energy_sanity(self, spec):
        for base, ck, re in trios(spec):
            for run in (base, ck, re):
                assert run.wall_ns >= run.useful_ns - 1e-6
                assert run.energy_pj > 0
                assert all(o >= -1e-6 for o in run.per_core_overhead_ns)
            # Checkpointing can only add time and energy.
            assert ck.wall_ns >= base.wall_ns
            assert ck.energy_pj >= base.energy_pj

    @given(workload_specs())
    @settings(max_examples=12, deadline=None)
    def test_acr_conservation(self, spec):
        for _, ck, re in trios(spec):
            # ACR's logged + omitted data equals the baseline's logged
            # data: omission relabels records, never invents or loses them.
            assert (
                re.total_baseline_checkpoint_bytes
                == ck.total_checkpoint_bytes
            )
            # ACR never logs more than the baseline.
            assert re.total_checkpoint_bytes <= ck.total_checkpoint_bytes
            # Omission counting is consistent: interval stats plus the
            # open (post-final-boundary drain) log cover every omission.
            trailing = len(re.checkpoint_store.current_log.omitted)
            assert re.omissions == (
                sum(iv.omitted_records for iv in re.intervals) + trailing
            )
            assert re.omissions <= re.omission_lookups

    @given(workload_specs())
    @settings(max_examples=8, deadline=None)
    def test_retained_logs_are_exact(self, spec):
        # Each first write in an interval is logged or omitted exactly
        # once, and every closed log still agrees with the statistics
        # recorded when its interval closed.
        for _, ck, re in trios(spec):
            for run in (ck, re):
                store = run.checkpoint_store
                assert len(run.intervals) == store.count
                retained = store.checkpoints[-RETAINED_CHECKPOINTS:]
                for log in [c.log for c in retained] + [store.current_log]:
                    addresses = log_addresses(log)
                    assert len(addresses) == len(set(addresses))
                for ckpt in retained:
                    stats = run.intervals[ckpt.index]
                    assert len(ckpt.log.records) == stats.logged_records
                    assert len(ckpt.log.omitted) == stats.omitted_records

    @given(workload_specs())
    @settings(max_examples=8, deadline=None)
    def test_recomputation_ground_truth(self, spec):
        from repro.ckpt.recovery import RecoveryEngine

        for _, _, re in trios(spec):
            store = re.checkpoint_store
            retained = [c.log for c in store.checkpoints[-2:]]
            retained.append(store.current_log)
            assert RecoveryEngine.verify_recomputation(retained) == []

    @given(workload_specs(), st.integers(min_value=1, max_value=3))
    @settings(max_examples=8, deadline=None)
    def test_errors_monotone(self, spec, n_errors):
        for _, ck, re in trios(spec, errors=UniformErrors(n_errors)):
            assert ck.recovery_count == n_errors
            assert re.recovery_count == n_errors
            # Every recovery rolled back to an established (or initial)
            # state.
            for run in (ck, re):
                for rec in run.recoveries:
                    assert -1 <= rec.safe_checkpoint < run.checkpoint_count
                    assert rec.waste_ns >= 0
                    assert rec.rollback_ns >= 0
            # Baseline never recomputes; ACR recoveries recompute iff
            # values were omitted before the detection point.
            assert all(r.recomputed_values == 0 for r in ck.recoveries)

    @given(workload_specs())
    @settings(max_examples=8, deadline=None)
    def test_determinism(self, spec):
        for engine in ENGINES:
            a = run_trio(spec, engine=engine)[2]
            b = run_trio(spec, engine=engine)[2]
            assert a.wall_ns == b.wall_ns
            assert a.energy_pj == b.energy_pj
            assert a.total_checkpoint_bytes == b.total_checkpoint_bytes
            assert a.omissions == b.omissions

    @given(workload_specs())
    @settings(max_examples=8, deadline=None)
    def test_dirty_lines_resident_and_flushed(self, spec):
        for engine in ENGINES:
            with recording_caches() as (machines, boundaries):
                run_trio(spec, engine=engine)
            assert len(machines) == 3
            # Dirtiness is only ever carried by resident lines.
            for machine in machines:
                for hier in machine.hierarchies:
                    for level in (hier.l1d, hier.l2):
                        assert level.dirty_lines() <= set(
                            level.resident_lines()
                        )
            # Every boundary leaves its participants clean at both
            # levels; the final one (program end, global scheme) covers
            # every core.
            clean = (frozenset(), frozenset())
            for participants, _, after in boundaries:
                assert all(after[core] == clean for core in participants)
            participants, _, after = boundaries[-1]
            assert sorted(participants) == [0, 1]
            assert after == [clean, clean]


def rollback_violations(
    spec, acr, steps_per_interval, apply=RecoveryEngine.apply_rollback
):
    """Drive a :class:`Mechanism` over ``spec`` and, after every step,
    roll back to every retained safe checkpoint.

    Returns how many of those rollbacks failed to restore the memory
    image captured at that checkpoint's boundary (``-1``: the initial
    image).  Words absent from an image hold their initial value.
    """
    cfg = MachineConfig(num_cores=2)
    programs = spec.build_programs(2)
    tables = None
    if acr:
        compiled = [compile_program(p, ThresholdPolicy(10)) for p in programs]
        programs = [c.program for c in compiled]
        tables = [c.slices for c in compiled]
    mech = Mechanism(cfg, MemoryImage(seed=spec.seed), tables)
    memory = mech.memory
    interps = [Interpreter(p, memory, on_store=mech.on_store) for p in programs]
    images = {-1: {}}
    violations = steps = 0
    while not all(it.done for it in interps):
        for it in interps:
            if not it.done:
                it.step_iterations(8)
        steps += 1
        count = mech.store.count
        before = memory.snapshot()
        for safe in range(max(-1, count - RETAINED_CHECKPOINTS), count):
            mech.rollback(safe, apply)
            want = images[safe]
            if any(
                memory.read(a) != want.get(a, memory.initial_value(a))
                for a in set(want) | set(memory.snapshot())
            ):
                violations += 1
            memory.restore(before)
        if steps % steps_per_interval == 0:
            images[count] = memory.snapshot()
            mech.establish(float(count + 1), float(count + 1))
    return violations


class TestMechanismRollback:
    @given(
        workload_specs(),
        st.sampled_from(["BER", "ACR"]),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=12, deadline=None)
    def test_rollback_restores_every_retained_boundary(
        self, spec, config, steps_per_interval
    ):
        # Memory equals the safe image after rollback to any retained
        # checkpoint, from any point of the run, with ACR's omitted
        # values recomputed from their Slices.
        assert rollback_violations(
            spec, config == "ACR", steps_per_interval
        ) == 0

    @pytest.mark.parametrize("config", ["BER", "ACR"])
    def test_misordered_logs_violate_the_law(self, config):
        # The harness's seeded misorder-logs restore (oldest log first)
        # must break the law above, or the property has no teeth.
        misordered = _RESTORES["misorder-logs"]
        assert rollback_violations(
            tiny_workload(), config == "ACR", 3, misordered
        ) > 0
