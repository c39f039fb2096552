"""The ``jobs > 1`` fan-out: N forked runners sharing one cache.

Each worker is the runner forked, resolving the key list on the inline
path (claim, simulate, publish); the parent only reaps, counts and
respawns (its supervision and the telemetry that crosses the worker
pipes are pinned in ``test_supervisor.py`` and
``test_supervisor_telemetry.py``).  The contracts pinned here:

* work spreads: with ``jobs=2`` both workers simulate keys;
* a task exception fails the fan-out once, naming the task and the
  error: the simulation is deterministic, so it is not retried;
* a worker killed mid-stream leaves no stale task in the aggregator;
* a runner without a cache fans out through a scratch one and keeps
  nothing of it.
"""

import os
import signal
import tempfile

import pytest

from repro.experiments.configs import ConfigRequest
from repro.experiments.runner import ExperimentRunner
from repro.obs.telemetry.aggregate import CampaignTelemetry
from repro.sim.simulator import Simulator
from tests.resilience.chaos import (
    PAIRS,
    SHAPE,
    as_dicts,
    signal_claim_owners,
    trial_specs,
)


def test_both_workers_simulate_at_least_one_key(tmp_path, monkeypatch):
    pids = tmp_path / "pids"
    real = ExperimentRunner._simulate

    def spy(self, wl, req):
        with open(pids, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        real(self, wl, req)

    monkeypatch.setattr(ExperimentRunner, "_simulate", spy)
    runner = ExperimentRunner(jobs=2, cache_dir=tmp_path / "cache", **SHAPE)
    runner.run_many(PAIRS)
    simulated_by = pids.read_text().split()
    assert len(simulated_by) == len(PAIRS)  # each key once
    assert len(set(simulated_by)) == 2
    assert str(os.getpid()) not in simulated_by
    assert runner.progress.by_source()["worker"] == len(PAIRS)


def test_task_exception_fails_the_fan_out_once(tmp_path, monkeypatch):
    attempts = tmp_path / "attempts"

    def boom(self, options):
        with open(attempts, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        raise RuntimeError("simulator crashed")

    monkeypatch.setattr(Simulator, "run", boom)
    runner = ExperimentRunner(jobs=2, cache_dir=tmp_path / "cache", **SHAPE)
    pairs = [("is", ConfigRequest("NoCkpt")), ("cg", ConfigRequest("NoCkpt"))]
    with pytest.raises(RuntimeError) as exc:
        runner.run_many(pairs)
    message = str(exc.value)
    assert "RuntimeError: simulator crashed" in message
    assert "is/NoCkpt" in message or "cg/NoCkpt" in message
    # No retry: each key was attempted at most once, by one worker.
    assert len(attempts.read_text().split()) <= len(pairs)
    assert sorted(runner.cache.root.glob("*/*.lock")) == []
    assert runner.progress.worker_deaths == 0


@pytest.mark.chaos
@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
def test_sigkilled_worker_mid_stream_leaves_no_stale_task(tmp_path):
    specs = trial_specs()
    runner = ExperimentRunner(jobs=2, cache_dir=tmp_path / "cache")
    telemetry = CampaignTelemetry(progress=runner.progress)
    runner.telemetry = telemetry
    with signal_claim_owners(tmp_path / "cache", signal.SIGKILL, 1) as kills:
        runner.run_trials(specs)
    assert len(kills) == 1
    assert telemetry.tasks_finished >= len(specs)
    assert telemetry.malformed == 0
    assert telemetry.active == {}


def test_cacheless_fan_out_keeps_no_scratch_cache(monkeypatch):
    made = []
    real = tempfile.TemporaryDirectory

    def spy(*args, **kwargs):
        scratch = real(*args, **kwargs)
        made.append(scratch.name)
        return scratch

    monkeypatch.setattr(tempfile, "TemporaryDirectory", spy)
    runner = ExperimentRunner(jobs=2, **SHAPE)
    results = runner.run_many(PAIRS)
    assert as_dicts(results) == as_dicts(ExperimentRunner(**SHAPE).run_many(PAIRS))
    assert runner.cache is None
    assert len(made) == 1
    assert os.path.basename(made[0]).startswith("acr-fan-out-")
    assert not os.path.exists(made[0])
