"""End-to-end instrumentation tests: the simulator under observation.

The two load-bearing contracts:

* a **disabled** tracer (or none) keeps the run bit-identical to an
  uninstrumented one — every registered workload is pinned;
* an **enabled** tracer changes *nothing* about the simulation outputs:
  the traced result equals the untraced result once the ``obs`` payload
  is stripped, while the event stream mirrors the run's statistics.
"""

import pytest

from repro.errors.injection import UniformErrors
from repro.obs.events import (
    AddrMapHit,
    AddrMapInsert,
    CheckpointBegin,
    CheckpointEnd,
    IntervalBoundary,
    LogWrite,
    RecoveryBegin,
    RecoveryEnd,
    SliceRecompute,
)
from repro.obs.tracer import NullTracer, RecordingTracer
from repro.sim.simulator import SimulationOptions, Simulator

from tests.conftest import tiny_machine, tiny_programs


def traced_options(baseline, tracer=None, collect_metrics=False):
    return SimulationOptions(
        label="ReCkpt_E",
        scheme="global",
        acr=True,
        num_checkpoints=6,
        errors=UniformErrors(1),
        baseline=baseline.baseline_profile(),
        tracer=tracer,
        collect_metrics=collect_metrics,
    )


@pytest.fixture(scope="module")
def sim():
    return Simulator(tiny_programs(4), tiny_machine(4))


@pytest.fixture(scope="module")
def baseline(sim):
    return sim.run_baseline()


@pytest.fixture(scope="module")
def untraced(sim, baseline):
    return sim.run(traced_options(baseline))


@pytest.fixture(scope="module")
def tracer_and_run(sim, baseline):
    tracer = RecordingTracer()
    run = sim.run(traced_options(baseline, tracer=tracer))
    return tracer, run


class TestDisabledPath:
    def test_default_run_has_no_obs(self, untraced):
        assert untraced.obs is None
        assert untraced.to_dict()["obs"] is None

    def test_null_tracer_is_bit_identical(self, sim, baseline, untraced):
        run = sim.run(traced_options(baseline, tracer=NullTracer()))
        assert run.obs is None
        assert run.equivalent(untraced)

    def test_null_tracer_every_workload(self):
        from repro.experiments.runner import ExperimentRunner

        runner = ExperimentRunner(num_cores=2, region_scale=0.1, reps=8)
        for workload in runner.workloads():
            request = runner.default_request(
                workload, "ReCkpt_E", num_checkpoints=4
            )
            plain = runner.run(workload, request)
            nulled = runner.run_traced(
                workload, request,
                tracer=NullTracer(), collect_metrics=False,
            )
            assert nulled.obs is None, workload
            assert plain.equivalent(nulled), workload


    def test_disabled_run_builds_no_boundary_events(
        self, sim, baseline, monkeypatch
    ):
        """Counted, not timed: with a NullTracer and telemetry off, a
        run builds none of the boundary's events; a traced run builds
        one of each per boundary."""
        from repro.obs.telemetry import emit as telemetry
        from repro.sim import simulator as simulator_mod

        built = {}

        def counting(cls):
            def build(*args, **kwargs):
                built[cls] = built.get(cls, 0) + 1
                return cls(*args, **kwargs)
            return build

        kinds = (CheckpointBegin, IntervalBoundary, CheckpointEnd)
        for cls in kinds:
            monkeypatch.setattr(simulator_mod, cls.__name__, counting(cls))
        assert not telemetry.telemetry_active()

        run = sim.run(traced_options(baseline, tracer=NullTracer()))
        assert run.checkpoint_count > 0
        assert built == {}

        sim.run(traced_options(baseline, tracer=RecordingTracer()))
        assert built == dict.fromkeys(kinds, run.checkpoint_count)


class TestEnabledPath:
    def test_tracing_does_not_perturb_results(self, tracer_and_run, untraced):
        _, traced = tracer_and_run
        traced_doc = traced.to_dict()
        assert traced_doc.pop("obs") is not None
        untraced_doc = untraced.to_dict()
        assert untraced_doc.pop("obs") is None
        assert traced_doc == untraced_doc

    def test_every_event_family_appears(self, tracer_and_run):
        tracer, _ = tracer_and_run
        kinds = {type(ev) for ev in tracer.events}
        assert {
            CheckpointBegin, CheckpointEnd, IntervalBoundary, LogWrite,
            AddrMapInsert, AddrMapHit, SliceRecompute,
            RecoveryBegin, RecoveryEnd,
        } <= kinds

    def test_checkpoint_events_match_intervals(self, tracer_and_run):
        tracer, run = tracer_and_run
        begins = [e for e in tracer.events if isinstance(e, CheckpointBegin)]
        ends = [e for e in tracer.events if isinstance(e, CheckpointEnd)]
        assert len(begins) == len(ends) == run.checkpoint_count
        by_index = {e.index: e for e in ends}
        for iv in run.intervals:
            end = by_index[iv.index]
            assert end.logged_records == iv.logged_records
            assert end.omitted_records == iv.omitted_records
            assert end.logged_bytes == iv.logged_bytes
            assert end.flushed_bytes == iv.flushed_bytes

    def test_log_writes_match_log_statistics(self, tracer_and_run):
        tracer, run = tracer_and_run
        writes = [e for e in tracer.events if isinstance(e, LogWrite)]
        taken = sum(1 for e in writes if e.taken)
        skipped = sum(1 for e in writes if not e.taken)
        # Events cover every interval *including* the open partial one,
        # so totals are at least the per-interval sums.
        assert taken >= sum(iv.logged_records for iv in run.intervals)
        assert skipped >= sum(iv.omitted_records for iv in run.intervals)
        assert skipped == run.omissions

    def test_slice_recomputes_match_recovery_stats(self, tracer_and_run):
        tracer, run = tracer_and_run
        recomputes = [
            e for e in tracer.events if isinstance(e, SliceRecompute)
        ]
        assert len(recomputes) == sum(
            r.recomputed_values for r in run.recoveries
        )
        assert all(e.ns > 0 for e in recomputes)

    def test_obs_report_attached_and_consistent(self, tracer_and_run):
        tracer, run = tracer_and_run
        assert run.obs is not None
        assert run.obs.events_captured == tracer.captured
        assert run.obs.events_dropped == 0
        counters = run.obs.metrics.counters_dict()
        assert counters["ckpt.count"] == run.checkpoint_count
        assert counters["recovery.count"] == run.recovery_count
        assert counters["log.writes_skipped"] == run.omissions
        assert counters["addrmap.hits"] == run.omissions
        assert len(run.obs.metrics.intervals) == run.checkpoint_count

    def test_capacity_bound_drops_are_accounted(self, sim, baseline):
        tracer = RecordingTracer(capacity=50)
        run = sim.run(traced_options(baseline, tracer=tracer))
        assert tracer.captured == 50
        assert tracer.dropped > 0
        assert run.obs.events_captured == 50
        assert run.obs.events_dropped == tracer.dropped

    def test_metrics_only_run_has_obs_but_no_events(self, sim, baseline,
                                                    untraced):
        run = sim.run(traced_options(baseline, collect_metrics=True))
        assert run.obs is not None
        assert run.obs.events_captured == 0
        doc = run.to_dict()
        doc.pop("obs")
        base_doc = untraced.to_dict()
        base_doc.pop("obs")
        assert doc == base_doc
