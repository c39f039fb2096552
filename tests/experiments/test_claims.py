"""The runner's per-key claim: each key is simulated at most once by all
the runners that share one cache directory.

Runs and trials, inline (``jobs=1``) and pooled (``jobs=2``), take one
claim per miss — a :class:`~repro.resilience.locks.KeyLock` on
``cache.lock_path(key)``.  A witness logs every cache store (see
:func:`tests.resilience.chaos.store_witness`), so "each entry stored
exactly once" is the exactly-once proof.  Claims held by a peer are
simulated here: a live claim is waited on, a released or stale one is
re-claimed.
"""

import multiprocessing
import os
import threading
import time
from collections import Counter

import pytest

from repro.experiments.configs import ConfigRequest
from repro.experiments.runner import ExperimentRunner
from repro.inject.campaign import build_trials
from repro.resilience.locks import KeyLock
from repro.sim.simulator import Simulator
from tests.resilience.chaos import once_each, store_witness

_SHAPE = dict(num_cores=2, region_scale=0.05, reps=2)

#: Three workloads × a baseline and two dependents: twelve cache keys
#: once the implicit baselines are counted (they are requested here).
_PAIRS = [
    (wl, req)
    for wl in ("is", "cg", "mg")
    for req in (
        ConfigRequest("NoCkpt"),
        ConfigRequest("Ckpt_E", num_checkpoints=5),
        ConfigRequest("ReCkpt_E", num_checkpoints=5, threshold=5),
    )
]
#: Two independent keys (baselines of different workloads).
_IS, _CG = ("is", ConfigRequest("NoCkpt")), ("cg", ConfigRequest("NoCkpt"))


def _trials():
    return build_trials(
        ["cg"], trials=3, num_cores=2, steps_per_interval=2,
        iters_per_step=4, region_scale=0.05, reps=2,
    )


def _runner(cache_dir, **kw):
    return ExperimentRunner(cache_dir=cache_dir, **_SHAPE, **kw)


def _claim_files(cache_dir):
    return sorted(cache_dir.glob("*/*.lock"))


def _race(cache_dir, jobs, trials, barrier):
    """One of two runner processes started together on one cache."""
    runner = _runner(cache_dir, jobs=jobs)
    barrier.wait(timeout=60.0)
    if trials:
        runner.run_trials(_trials())
    else:
        runner.run_many(_PAIRS)


def _run_pair(cache_dir, jobs, trials=False):
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(2)
    procs = [
        ctx.Process(target=_race, args=(cache_dir, jobs, trials, barrier))
        for _ in range(2)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=300.0)
    assert [proc.exitcode for proc in procs] == [0, 0]


class TestExactlyOnce:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_two_runners_simulate_each_run_once(self, tmp_path, jobs):
        cache_dir = tmp_path / "cache"
        with store_witness(tmp_path / "stored") as stored:
            _run_pair(cache_dir, jobs)
        keys = {_runner(None).cache_key(wl, req) for wl, req in _PAIRS}
        assert stored() == Counter(dict.fromkeys(keys, 1))
        assert stored() == once_each(cache_dir)
        assert _claim_files(cache_dir) == []

    def test_two_runners_execute_each_trial_once(self, tmp_path):
        cache_dir = tmp_path / "cache"
        with store_witness(tmp_path / "stored") as stored:
            _run_pair(cache_dir, jobs=2, trials=True)
        assert len(stored()) == len(set(_trials()))
        assert stored() == once_each(cache_dir)
        assert _claim_files(cache_dir) == []


def _wait_for(predicate, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.02)


def _peer_claims(runner, pairs):
    """Claims a peer holds on ``pairs`` (acquired here, released by the
    test to play the peer's publish, crash or staleness)."""
    claims = {}
    for pair in pairs:
        claim = KeyLock(runner.cache.lock_path(runner.cache_key(*pair)))
        assert claim.try_acquire()
        claims[pair] = claim
    return claims


def _publish(runner, pair):
    """Store ``pair``'s result as a peer would (computed cache-less)."""
    result = ExperimentRunner(**_SHAPE).run(*pair)
    runner.cache.store(runner.cache_key(*pair), result)


class TestClaims:
    def test_cached_keys_take_no_claim(self, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cache"
        _runner(cache_dir).run_many(_PAIRS[:3])
        attempts = []
        real = KeyLock.try_acquire
        monkeypatch.setattr(
            KeyLock, "try_acquire",
            lambda self: attempts.append(self.path) or real(self),
        )
        runner = _runner(cache_dir)
        runner.run_many(_PAIRS[:3])
        assert attempts == []
        assert runner.progress.disk_hits == 3
        assert runner.progress.disk_misses == 0

    def test_claim_is_the_entry_lock_path_released_after_store(
        self, tmp_path, monkeypatch
    ):
        # While the second key simulates, the first key's claim is
        # already gone (released right after its store) and the second
        # key's claim is the cache's lock path for it.
        runner = _runner(tmp_path / "cache")
        pairs = [_IS, _CG]
        seen = []
        real = runner._simulate

        def spy(wl, req):
            seen.append(_claim_files(runner.cache.root))
            real(wl, req)

        monkeypatch.setattr(runner, "_simulate", spy)
        runner.run_many(pairs)
        first, second = (runner.cache.lock_path(runner.cache_key(*p))
                         for p in pairs)
        assert seen == [sorted([first, second]), [second]]
        assert _claim_files(runner.cache.root) == []

    def test_held_claims_are_heartbeaten_per_completed_task(
        self, tmp_path, monkeypatch
    ):
        runner = _runner(tmp_path / "cache")
        pairs = [_IS, _CG]
        second = runner.cache.lock_path(runner.cache_key(*pairs[1]))
        ages = []
        real = runner._simulate

        def spy(wl, req):
            if not ages:
                old = time.time() - 120.0
                os.utime(second, (old, old))
            ages.append(time.time() - second.stat().st_mtime)
            real(wl, req)

        monkeypatch.setattr(runner, "_simulate", spy)
        runner.run_many(pairs)
        assert ages[0] > 60.0 and ages[1] < 60.0

    def test_failed_execution_releases_every_claim(
        self, tmp_path, monkeypatch
    ):
        def boom(self, options):
            raise RuntimeError("simulator crashed")

        monkeypatch.setattr(Simulator, "run", boom)
        runner = _runner(tmp_path / "cache")
        with pytest.raises(RuntimeError, match="crashed"):
            runner.run_many(_PAIRS[:3])
        assert _claim_files(runner.cache.root) == []

    def test_claimed_keys_are_waited_on_and_free_keys_simulated(
        self, tmp_path
    ):
        # The mine/theirs split: a peer holds ``theirs``; this runner
        # simulates ``mine`` straight away and waits on ``theirs`` until
        # the peer publishes it, never simulating it.
        mine, theirs = _IS, _CG
        runner = _runner(tmp_path / "cache")
        claims = _peer_claims(runner, [theirs])
        thread = threading.Thread(target=runner.run_many, args=([mine, theirs],))
        with store_witness(tmp_path / "stored") as stored:
            thread.start()
            try:
                _wait_for(lambda: runner.cache_key(*mine) in runner.cache)
                time.sleep(0.2)
                assert thread.is_alive()  # still waiting on the live claim
                assert list(stored()) == [runner.cache_key(*mine)]
                _publish(runner, theirs)
            finally:
                claims[theirs].release()
            thread.join(timeout=60.0)
        assert not thread.is_alive()
        # The peer's publish is the only store of ``theirs``.
        assert stored() == once_each(runner.cache.root)
        assert runner.progress.by_source()["sim"] == 1
        assert runner.progress.by_source()["disk"] == 1

    def test_claim_released_unpublished_is_simulated_promptly(self, tmp_path):
        # The owner vanishes without publishing: the waiter wins the
        # claim and simulates, without waiting out the staleness window.
        pair = _IS
        runner = _runner(tmp_path / "cache")
        claims = _peer_claims(runner, [pair])
        thread = threading.Thread(target=runner.run, args=pair)
        thread.start()
        time.sleep(0.2)
        assert thread.is_alive()
        claims[pair].release()
        thread.join(timeout=60.0)
        assert not thread.is_alive()
        assert runner.progress.by_source()["sim"] == 1

    def test_stale_claim_is_broken(self, tmp_path):
        pair = _IS
        runner = _runner(tmp_path / "cache")
        path = runner.cache.lock_path(runner.cache_key(*pair))
        path.parent.mkdir(parents=True)
        path.write_text("99999\n")  # left by a crashed owner
        old = time.time() - 3600.0
        os.utime(path, (old, old))
        runner.run(*pair)
        assert runner.progress.by_source()["sim"] == 1
        assert not path.exists()


class TestOrphanedClaims:
    def test_orphan_is_reclaimed_and_each_key_simulated_once(self, tmp_path):
        # A peer claims both keys, then drops ``orphan`` unpublished
        # while still computing ``live``.  Two waiting runners must
        # re-claim the orphan (exactly one of them simulates it) and
        # keep waiting on ``live`` instead of simulating it too.
        cache_dir = tmp_path / "cache"
        orphan, live = _IS, _CG
        peer = _runner(cache_dir)
        claims = _peer_claims(peer, [orphan, live])
        waiters = [_runner(cache_dir) for _ in range(2)]
        errors = []

        def wait(runner):
            try:
                runner.run_many([orphan, live])
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=wait, args=(w,)) for w in waiters]
        with store_witness(tmp_path / "stored") as stored:
            for t in threads:
                t.start()
            try:
                time.sleep(0.2)
                claims[orphan].release()  # the peer "crashes" on this key
                _wait_for(lambda: peer.cache_key(*orphan) in peer.cache)
                time.sleep(0.2)
                assert all(t.is_alive() for t in threads)
                assert stored() == Counter({peer.cache_key(*orphan): 1})
                _publish(peer, live)
            finally:
                claims[live].release()
            for t in threads:
                t.join(timeout=60.0)
        assert not errors, errors
        # The peer's publish is the only store of ``live``.
        assert stored() == once_each(cache_dir)
        assert sum(w.progress.by_source()["sim"] for w in waiters) == 1
        assert _claim_files(cache_dir) == []
