"""Engine-level resilience: chaos campaigns, resume, interrupt flush.

The headline contracts of this layer:

* a SIGKILL-riddled parallel campaign produces a **bit-identical** JSON
  report to an undisturbed serial one;
* an interrupted campaign resumed from the completion journal executes
  only the remaining tasks and still reports bit-identically;
* a ``KeyboardInterrupt`` mid-fan-out leaves every completed result in
  the cache and the journal before re-raising;
* two invocations sharing a cache directory elect one simulator per key
  through the per-key claim.
"""

import json
import os
import signal
import threading
import time

import pytest

from repro.experiments.configs import ConfigRequest
from repro.experiments.runner import ExperimentRunner
from repro.inject.campaign import build_trials, run_campaign
from repro.resilience.locks import KeyLock
from repro.resilience.policy import ResiliencePolicy

chaos = pytest.mark.skipif(
    not hasattr(signal, "SIGKILL"),
    reason="chaos tests need SIGKILL",
)

_FAST = dict(backoff_base_s=0.01, backoff_max_s=0.05)


def _specs(trials=2):
    return build_trials(
        ["cg"], trials=trials, num_cores=2, steps_per_interval=2,
        iters_per_step=4, region_scale=0.05, reps=2,
    )


def _runner(**kw):
    kw.setdefault("num_cores", 2)
    kw.setdefault("region_scale", 0.05)
    kw.setdefault("reps", 2)
    kw.setdefault("resilience", ResiliencePolicy(**_FAST))
    return ExperimentRunner(**kw)


def _report_json(report):
    return json.dumps(report.to_json_dict(), sort_keys=True)


@chaos
@pytest.mark.chaos
def test_sigkilled_campaign_report_is_bit_identical():
    specs = _specs()
    undisturbed = run_campaign(_runner(jobs=1), _specs())

    disturbed_runner = _runner(jobs=2)
    kills = []

    def murder(worker, task):
        if len(kills) < 2 and worker.process.pid is not None:
            kills.append(worker.process.pid)
            os.kill(worker.process.pid, signal.SIGKILL)

    disturbed_runner.supervisor_hooks["on_dispatch"] = murder
    disturbed = run_campaign(disturbed_runner, specs)

    assert len(kills) == 2
    assert disturbed_runner.progress.worker_deaths >= 1
    assert disturbed.failure_report is not None
    assert disturbed.failure_report.worker_deaths >= 1
    # The artifact carries no scar tissue: byte-for-byte identical.
    assert _report_json(disturbed) == _report_json(undisturbed)


def test_interrupted_campaign_resumes_where_it_stopped(tmp_path):
    specs = _specs()  # 2 configs x 2 trials = 4 tasks
    undisturbed = run_campaign(_runner(jobs=1), _specs())

    cache = tmp_path / "cache"
    first = _runner(jobs=2, cache_dir=cache)
    completions = []

    def interrupt(task):
        completions.append(task.key)
        if len(completions) == 2:
            raise KeyboardInterrupt

    first.supervisor_hooks["on_result"] = interrupt
    with pytest.raises(KeyboardInterrupt):
        first.run_trials(specs)

    # Exactly the two completed tasks were journaled before the
    # interrupt; the pool is dead.
    assert len(first.journal.load()) == 2
    assert first._active_supervisor is None

    second = _runner(jobs=1, cache_dir=cache, resume=True)
    resumed = run_campaign(second, specs)
    # Only the M - N remaining tasks execute; the rest come from disk.
    assert second.progress.resumed == 2
    assert second.progress.simulated == 2
    assert second.progress.by_source()["disk"] == 2
    assert _report_json(resumed) == _report_json(undisturbed)


def test_resume_without_journal_is_rejected():
    with pytest.raises(ValueError, match="resume"):
        _runner(resume=True)


def test_keyboard_interrupt_flushes_completed_runs(tmp_path):
    runner = _runner(jobs=2, cache_dir=tmp_path / "cache")

    def interrupt(task):
        raise KeyboardInterrupt

    runner.supervisor_hooks["on_result"] = interrupt
    pairs = [
        ("is", ConfigRequest("NoCkpt")),
        ("cg", ConfigRequest("NoCkpt")),
    ]
    with pytest.raises(KeyboardInterrupt):
        runner.run_many(pairs)
    # The first completion was installed in cache + journal before the
    # interrupt propagated.
    assert len(runner.cache) >= 1
    assert len(runner.journal.load()) >= 1


def test_clean_parallel_run_reports_visible_zeros(tmp_path):
    runner = _runner(jobs=2, cache_dir=tmp_path / "cache")
    runner.run_many([("is", ConfigRequest("NoCkpt"))])
    line = runner.progress.resilience_line()
    assert line == (
        "resilience: 0 retried, 0 timed out, 0 worker deaths, "
        "0 degraded-to-serial, 0 resumed from journal"
    )
    assert line in runner.progress.summary_table()
    assert runner.last_failure_report is not None
    assert runner.last_failure_report.clean


def test_lock_waiter_reuses_winners_entry(tmp_path):
    req = ConfigRequest("NoCkpt")
    waiter = _runner(cache_dir=tmp_path / "cache")
    key = waiter.cache_key("is", req)
    assert waiter.lookup("is", req) is None  # cold cache

    # A concurrent invocation holds the key's claim while it computes;
    # this one must wait on the live claim, then serve the winner's
    # published entry instead of re-simulating.
    winner = _runner()  # no cache: just computes the value
    result = winner.run("is", req)
    holder = KeyLock(waiter.cache.lock_path(key))
    assert holder.try_acquire()
    got = []
    thread = threading.Thread(target=lambda: got.append(waiter.run("is", req)))
    thread.start()
    try:
        time.sleep(0.3)  # the waiter is polling the live claim now
        assert not got
        waiter.cache.store(key, result)
    finally:
        holder.release()
    thread.join(timeout=60.0)

    assert got[0].to_dict() == result.to_dict()
    assert waiter.progress.by_source()["sim"] == 0
    assert waiter.progress.by_source()["disk"] == 1
    assert not waiter.cache.lock_path(key).exists()


def test_parallel_results_identical_with_and_without_supervisor_cache(
    tmp_path,
):
    pairs = [
        ("is", ConfigRequest("NoCkpt")),
        ("is", ConfigRequest("ReCkpt_E", num_checkpoints=5, threshold=5)),
    ]
    serial = _runner(jobs=1)
    parallel = _runner(jobs=2, cache_dir=tmp_path / "cache")
    a = serial.run_many(pairs)
    b = parallel.run_many(pairs)
    assert [r.to_dict() for r in a] == [r.to_dict() for r in b]
    # Every completion was journaled, including the supervised ones.
    assert len(parallel.journal.load()) == 2
