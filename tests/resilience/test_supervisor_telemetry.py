"""Fan-out telemetry: frames cross the workers' one-way pipes.

A forked worker installs a frame sink exactly when its parent runner has
a :class:`CampaignTelemetry` attached, and sends each frame up its pipe;
the parent folds them into its aggregator.  When the workers keep dying
and the parent resolves the rest in-process, its own inline telemetry
streams the same lifecycle.  Telemetry is advisory: results are the same
with and without it.
"""

import os
import signal

import pytest

from repro.experiments.runner import ExperimentRunner
from repro.obs.telemetry.aggregate import CampaignTelemetry
from repro.obs.telemetry.emit import telemetry_active
from repro.sim.simulator import Simulator
from tests.resilience.chaos import PAIRS, SHAPE, as_dicts, trial_specs

chaos = pytest.mark.skipif(
    not hasattr(signal, "SIGKILL"),
    reason="chaos tests need SIGKILL",
)


def _observe_sinks(monkeypatch, path):
    """Record, from inside each simulation, whether a sink is installed
    (one is only while a task runs)."""
    real_run = Simulator.run

    def observed_run(self, options):
        with open(path, "a") as fh:
            fh.write(f"{telemetry_active()}\n")
        return real_run(self, options)

    monkeypatch.setattr(Simulator, "run", observed_run)


def test_frames_stream_through_worker_pipes(tmp_path):
    specs = trial_specs()
    runner = ExperimentRunner(jobs=2, cache_dir=tmp_path / "cache")
    telemetry = CampaignTelemetry(progress=runner.progress)
    runner.telemetry = telemetry
    runner.run_trials(specs)

    # Every task's lifecycle reached the parent aggregator ...
    assert telemetry.tasks_started == telemetry.tasks_finished == len(specs)
    assert telemetry.malformed == 0
    assert telemetry.active == {}
    # ... next to the published notes, one per key ...
    assert runner.progress.by_source()["worker"] == len(specs)
    assert runner.progress.disk_misses == len(specs)
    assert runner.progress.forked_trials == len(specs)
    # ... and the parent reported its pool gauges.
    assert telemetry.workers == 2


@chaos
@pytest.mark.chaos
def test_degraded_serial_path_still_streams_frames(monkeypatch):
    parent = os.getpid()
    real = ExperimentRunner._simulate

    def die_unless_parent(self, wl, req):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        real(self, wl, req)

    monkeypatch.setattr(ExperimentRunner, "_simulate", die_unless_parent)
    runner = ExperimentRunner(jobs=2, **SHAPE)
    telemetry = CampaignTelemetry(progress=runner.progress)
    runner.telemetry = telemetry
    runner.run_many(PAIRS)

    assert runner.progress.degraded_to_serial == 1
    # The in-process path streams its frames straight into the
    # aggregator (no worker lived long enough to send one).
    assert telemetry.tasks_started == telemetry.tasks_finished == len(PAIRS)
    assert telemetry.malformed == 0
    assert telemetry.active == {}


def test_no_telemetry_means_no_sink_in_workers(tmp_path, monkeypatch):
    sinks = tmp_path / "sinks"
    _observe_sinks(monkeypatch, sinks)
    ExperimentRunner(jobs=2, **SHAPE).run_many(PAIRS)
    # emit() was a no-op inside every worker.
    assert set(sinks.read_text().split()) == {"False"}


def test_results_identical_with_and_without_telemetry(tmp_path, monkeypatch):
    sinks = tmp_path / "sinks"
    _observe_sinks(monkeypatch, sinks)
    plain = ExperimentRunner(jobs=2, **SHAPE).run_many(PAIRS)
    sinks.unlink()

    runner = ExperimentRunner(jobs=2, **SHAPE)
    runner.telemetry = CampaignTelemetry(progress=runner.progress)
    streamed = runner.run_many(PAIRS)
    assert set(sinks.read_text().split()) == {"True"}
    assert as_dicts(streamed) == as_dicts(plain)
