"""Telemetry must be advisory: pinned bit-identity + zero-frame tests.

The whole observability layer rides on one invariant — attaching (or
detaching) telemetry can never change a scientific result.  These tests
pin it from both directions: identical ``to_dict`` payloads with and
without a live aggregator, and exactly zero frames when nothing is
attached (the ambient ``emit`` is a true no-op, not a buffered one).
"""

import json

from repro.experiments.configs import ConfigRequest
from repro.experiments.runner import ExperimentRunner
from repro.inject.harness import TrialSpec, run_trial
from repro.obs.telemetry.aggregate import CampaignTelemetry
from repro.obs.telemetry.emit import task_telemetry, telemetry_active


def _runner(**kw):
    kw.setdefault("num_cores", 2)
    kw.setdefault("region_scale", 0.05)
    kw.setdefault("reps", 2)
    return ExperimentRunner(**kw)


def _spec():
    return TrialSpec(
        workload="cg", config="ACR", seed=3, num_cores=2,
        steps_per_interval=2, iters_per_step=4, region_scale=0.05, reps=2,
    )


def _canon(result):
    return json.dumps(result.to_dict(), sort_keys=True)


class TestRunnerIdentity:
    def test_run_results_identical_with_and_without_telemetry(self):
        request = ConfigRequest("ReCkpt_E", error_count=2)
        plain = _runner().run("cg", request)

        telemetry = CampaignTelemetry()
        streamed_runner = _runner(telemetry=telemetry)
        streamed = streamed_runner.run("cg", request)

        assert _canon(plain) == _canon(streamed)
        # The streamed run really did stream (this is not a vacuous
        # comparison between two silent runs).
        assert telemetry.frames > 0
        # The request plus its baseline-profile prerequisite both ran.
        assert telemetry.tasks_finished >= 1
        assert telemetry.active == {}

    def test_detached_runner_emits_zero_frames(self):
        # A live aggregator exists but is NOT attached to the runner:
        # ambient emission must stay a no-op for the whole run.
        bystander = CampaignTelemetry()
        assert telemetry_active() is False
        _runner().run("cg", ConfigRequest("Ckpt_E", error_count=1))
        assert telemetry_active() is False
        assert bystander.frames == 0
        assert bystander.tasks_started == 0


class TestInjectTrialIdentity:
    def test_trial_identical_with_and_without_telemetry(self):
        plain = run_trial(_spec())

        frames = []
        with task_telemetry("cg/inject:ACR",
                            lambda task, event: frames.append(event)):
            streamed = run_trial(_spec())

        assert _canon(plain) == _canon(streamed)
        # The instrumented pass emitted heartbeats (interval boundaries)
        # from inside the mechanism loop (lifecycle frames aside).
        names = [type(f).__name__ for f in frames]
        assert "TaskStarted" in names
        assert "TaskFinished" in names
        assert names.count("IntervalBoundary") >= 1

    def test_trial_emits_nothing_when_disabled(self):
        frames = []
        with task_telemetry("probe", lambda task, event: frames.append(event)):
            pass
        baseline = len(frames)  # lifecycle only
        run_trial(_spec())  # no ambient sink: must not leak frames
        assert len(frames) == baseline
