"""Engine-level resilience: chaos campaigns, resume, interrupt flush.

The headline contracts of this layer:

* a SIGKILL-riddled parallel campaign produces a **bit-identical** JSON
  report to an undisturbed serial one, in seconds — a dead worker's
  claim is broken at once, not after the staleness bound;
* a worker frozen mid-key (SIGSTOP) costs the staleness bound: its claim
  goes stale, a peer breaks it, and the frozen worker is reaped;
* an interrupted campaign resumed from the completion journal executes
  only the remaining tasks and still reports bit-identically;
* a ``KeyboardInterrupt`` mid-fan-out leaves every completed result in
  the cache and the journal, and no claim behind, before re-raising;
* two invocations sharing a cache directory elect one simulator per key
  through the per-key claim.
"""

import json
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.experiments.cache import trial_cache_key
from repro.experiments.configs import ConfigRequest
from repro.experiments.runner import ExperimentRunner
from repro.inject.campaign import build_trials, run_campaign
from repro.resilience.locks import KeyLock
from tests.resilience.chaos import signal_claim_owners

chaos = pytest.mark.skipif(
    not hasattr(signal, "SIGKILL"),
    reason="chaos tests need SIGKILL",
)


def _specs(trials=2):
    return build_trials(
        ["cg"], trials=trials, num_cores=2, steps_per_interval=2,
        iters_per_step=4, region_scale=0.05, reps=2,
    )


def _runner(**kw):
    kw.setdefault("num_cores", 2)
    kw.setdefault("region_scale", 0.05)
    kw.setdefault("reps", 2)
    return ExperimentRunner(**kw)


def _report_json(report):
    return json.dumps(report.to_json_dict(), sort_keys=True)


def _interrupt_parent_at(runner, published):
    """Raise ``KeyboardInterrupt`` in this (the parent) process when the
    ``published``-th worker note is counted; workers keep their own
    progress trackers, so only the parent's is wrapped."""
    record, seen = runner.progress.record, []

    def interrupting(workload, config, source, seconds, traced=False):
        record(workload, config, source, seconds, traced)
        if source == "worker":
            seen.append(config)
            if len(seen) == published:
                raise KeyboardInterrupt

    runner.progress.record = interrupting


@chaos
@pytest.mark.chaos
def test_sigkilled_campaign_report_is_bit_identical(tmp_path):
    specs = _specs()
    undisturbed = run_campaign(_runner(jobs=1), _specs())

    # The default 600 s claim bound: a dead worker's claim must be
    # broken at once, or this campaign would sit out ten minutes.
    disturbed_runner = _runner(jobs=2, cache_dir=tmp_path / "cache")
    t0 = time.monotonic()
    with signal_claim_owners(tmp_path / "cache", signal.SIGKILL, 2) as kills:
        disturbed = run_campaign(disturbed_runner, specs)

    assert time.monotonic() - t0 < 60.0
    assert len(kills) == 2
    assert disturbed_runner.progress.worker_deaths >= 1
    # The artifact carries no scar tissue: byte-for-byte identical.
    assert _report_json(disturbed) == _report_json(undisturbed)
    # Zero completed results lost: every key loads from the cache.
    for spec in specs:
        assert trial_cache_key(spec) in disturbed_runner.cache


@chaos
@pytest.mark.chaos
def test_sigstopped_worker_claim_goes_stale_and_is_broken(tmp_path):
    specs = _specs()
    undisturbed = run_campaign(_runner(jobs=1), _specs())

    frozen_runner = _runner(
        jobs=2, cache_dir=tmp_path / "cache",
        lock_stale_s=1.5,
    )
    with signal_claim_owners(tmp_path / "cache", signal.SIGSTOP, 1) as frozen:
        frozen_campaign = run_campaign(frozen_runner, specs)

    assert len(frozen) == 1
    assert _report_json(frozen_campaign) == _report_json(undisturbed)
    # No stopped process is left behind: the frozen worker was killed
    # and reaped when the fan-out ended.
    assert multiprocessing.active_children() == []
    with pytest.raises(ProcessLookupError):
        os.kill(frozen[0], 0)


def test_interrupted_campaign_resumes_where_it_stopped(tmp_path):
    specs = _specs(trials=4)  # 2 configs x 4 trials = 8 tasks
    undisturbed = run_campaign(_runner(jobs=1), _specs(trials=4))

    cache = tmp_path / "cache"
    first = _runner(jobs=2, cache_dir=cache)
    _interrupt_parent_at(first, 2)
    with pytest.raises(KeyboardInterrupt):
        first.run_trials(specs)

    # The two noted keys were journaled before the interrupt propagated
    # (a worker storing a key when stopped finishes it, so one more per
    # worker may join them), each is in the cache, the keys in flight
    # were abandoned with their claims released, and every worker is
    # dead.
    journaled = first.journal.load()
    assert 2 <= len(journaled) < len(specs)
    assert all(key in first.cache for key in journaled)
    assert multiprocessing.active_children() == []
    assert sorted(cache.glob("*/*.lock")) == []

    second = _runner(jobs=1, cache_dir=cache, resume=True)
    resumed = run_campaign(second, specs)
    # Only the M - N remaining tasks execute; the rest come from disk.
    assert second.progress.resumed == len(journaled)
    assert second.progress.simulated == len(specs) - len(journaled)
    assert second.progress.simulated >= 1
    assert second.progress.by_source()["disk"] == len(journaled)
    assert _report_json(resumed) == _report_json(undisturbed)


def test_resume_without_journal_is_rejected():
    with pytest.raises(ValueError, match="resume"):
        _runner(resume=True)


def test_keyboard_interrupt_flushes_completed_runs(tmp_path):
    runner = _runner(jobs=2, cache_dir=tmp_path / "cache")
    _interrupt_parent_at(runner, 1)
    pairs = [
        ("is", ConfigRequest("NoCkpt")),
        ("cg", ConfigRequest("NoCkpt")),
    ]
    with pytest.raises(KeyboardInterrupt):
        runner.run_many(pairs)
    # The first completion was stored in cache + journal before the
    # interrupt propagated, and a worker stopped mid-key released its
    # claim on the way out.
    assert len(runner.cache) >= 1
    assert len(runner.journal.load()) >= 1
    assert all(key in runner.cache for key in runner.journal.load())
    assert sorted(runner.cache.root.glob("*/*.lock")) == []


def test_clean_parallel_run_reports_visible_zeros(tmp_path):
    runner = _runner(jobs=2, cache_dir=tmp_path / "cache")
    runner.run_many([("is", ConfigRequest("NoCkpt"))])
    line = runner.progress.resilience_line()
    assert line == (
        "resilience: 0 worker deaths, "
        "0 degraded-to-serial, 0 resumed from journal"
    )
    assert line in runner.progress.summary_table()


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
    # Every completion was journaled, including the forked workers' ones.
    assert len(parallel.journal.load()) == 2
