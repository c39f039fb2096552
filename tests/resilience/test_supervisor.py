"""How the parent of a ``jobs > 1`` fan-out supervises its workers.

There is no supervisor object: the parent forks N runners, watches
their exit sentinels and one-way pipes, and only reaps, counts and
respawns.  The contracts pinned here:

* workers that keep dying (three deaths, no key published in between)
  hand the rest to the parent, which resolves it in-process with the
  same results;
* every key a worker publishes reaches the parent as one ``published``
  note, so the parent's progress records (and echoes) each key once;
* a worker SIGKILLed mid-key is reaped, counted, traced and respawned,
  and its key is resolved by a live worker.
"""

import os
import signal

import pytest

from repro.experiments.runner import ExperimentRunner
from repro.obs.tracer import RecordingTracer
from tests.resilience.chaos import PAIRS, SHAPE, as_dicts

chaos = pytest.mark.skipif(
    not hasattr(signal, "SIGKILL"),
    reason="chaos tests need SIGKILL",
)


@chaos
@pytest.mark.chaos
def test_circuit_breaker_degrades_to_serial(monkeypatch):
    serial = ExperimentRunner(**SHAPE).run_many(PAIRS)
    parent = os.getpid()
    real = ExperimentRunner._simulate

    def die_unless_parent(self, wl, req):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        real(self, wl, req)

    monkeypatch.setattr(ExperimentRunner, "_simulate", die_unless_parent)
    runner = ExperimentRunner(jobs=2, **SHAPE)
    results = runner.run_many(PAIRS)

    assert as_dicts(results) == as_dicts(serial)
    assert runner.progress.worker_deaths == 3
    assert runner.progress.degraded_to_serial == 1
    # Every completion is attributed to the parent process.
    assert runner.progress.by_source() == {
        "disk": 0, "sim": len(PAIRS), "worker": 0,
    }


def test_on_complete_fires_per_task(tmp_path):
    echoed = []
    runner = ExperimentRunner(jobs=2, cache_dir=tmp_path / "cache", **SHAPE)
    runner.progress.echo = echoed.append
    runner.run_many(PAIRS)

    noted = [r for r in runner.progress.records if r.source == "worker"]
    assert sorted((r.workload, r.config) for r in noted) == sorted(
        (wl, req.config) for wl, req in PAIRS
    )
    assert all(r.seconds > 0 for r in noted)
    assert len(echoed) == len(PAIRS)


@chaos
@pytest.mark.chaos
def test_sigkilled_worker_respawns_and_task_retries(tmp_path, monkeypatch):
    serial = ExperimentRunner(**SHAPE).run_many(PAIRS)
    marker = tmp_path / "killed"
    simulated = tmp_path / "simulated"
    parent = os.getpid()
    real = ExperimentRunner._simulate

    def suicide_once(self, wl, req):
        # The first worker to start a key records its pid and dies
        # mid-key, holding the key's claim.
        if os.getpid() != parent:
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                pass
            else:
                os.write(fd, f"{os.getpid()} {wl}/{req.config}".encode())
                os.close(fd)
                os.kill(os.getpid(), signal.SIGKILL)
        real(self, wl, req)
        with open(simulated, "a") as fh:
            fh.write(f"{os.getpid()} {wl}/{req.config}\n")

    monkeypatch.setattr(ExperimentRunner, "_simulate", suicide_once)
    runner = ExperimentRunner(jobs=2, cache_dir=tmp_path / "cache", **SHAPE)
    tracer = RecordingTracer()
    runner.resilience_tracer = tracer
    results = runner.run_many(PAIRS)

    assert as_dicts(results) == as_dicts(serial)
    assert runner.progress.worker_deaths == 1
    assert runner.progress.degraded_to_serial == 0
    # The parent simulated nothing: the survivor and the respawned
    # worker resolved every key, the killed one included.
    assert runner.progress.by_source()["worker"] == len(PAIRS)
    killed_pid, killed_label = marker.read_text().split()
    [died] = [e for e in tracer.events if type(e).__name__ == "WorkerDied"]
    assert died.pid == int(killed_pid)
    done = [line.split() for line in simulated.read_text().splitlines()]
    assert len(done) == len(PAIRS)
    [(by, _label)] = [d for d in done if d[1] == killed_label]
    assert by not in (killed_pid, str(parent))
