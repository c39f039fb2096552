"""The in-flight lease registry: concurrent submissions split each key
set into exactly one simulator plus waiters."""

import hashlib

import pytest

from repro.experiments.cache import ResultCache
from repro.service.registry import InFlightRegistry


def _keys(n):
    return [hashlib.sha256(f"k{i}".encode()).hexdigest() for i in range(n)]


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestClaim:
    def test_uncontended_claim_wins_everything(self, cache):
        reg = InFlightRegistry(cache)
        keys = _keys(3)
        mine, theirs = reg.claim(keys)
        assert mine == keys
        assert theirs == []
        assert reg.in_flight == 3

    def test_two_registries_split_disjointly(self, cache):
        a = InFlightRegistry(cache)
        b = InFlightRegistry(cache)
        keys = _keys(4)
        a_mine, a_theirs = a.claim(keys[:3])  # overlap on keys[0:3]
        b_mine, b_theirs = b.claim(keys)
        assert a_mine == keys[:3] and a_theirs == []
        assert b_mine == [keys[3]]
        assert b_theirs == keys[:3]
        # Every key has exactly one owner across the two registries.
        assert set(a_mine) | set(b_mine) == set(keys)
        assert set(a_mine) & set(b_mine) == set()

    def test_reclaim_of_held_key_stays_mine(self, cache):
        reg = InFlightRegistry(cache)
        [key] = _keys(1)
        assert reg.claim([key]) == ([key], [])
        assert reg.claim([key]) == ([key], [])
        assert reg.in_flight == 1

    def test_publish_frees_the_lease(self, cache):
        a = InFlightRegistry(cache)
        b = InFlightRegistry(cache)
        [key] = _keys(1)
        a.claim([key])
        assert b.claim([key]) == ([], [key])
        a.publish(key)
        assert a.in_flight == 0
        assert b.claim([key]) == ([key], [])

    def test_release_all(self, cache):
        a = InFlightRegistry(cache)
        b = InFlightRegistry(cache)
        keys = _keys(3)
        a.claim(keys)
        a.release_all()
        assert a.in_flight == 0
        assert b.claim(keys) == (keys, [])

    def test_lease_path_is_not_the_runner_lock(self, cache):
        reg = InFlightRegistry(cache)
        [key] = _keys(1)
        lease = reg.lease_path(key)
        assert lease.suffix == ".lease"
        assert lease != cache.lock_path(key)


class TestWait:
    def test_returns_immediately_when_done(self, cache):
        reg = InFlightRegistry(cache)
        keys = _keys(2)
        assert reg.wait(keys, done=lambda k: True, timeout_s=5.0) == []

    def test_waits_until_done_flips(self, cache):
        owner = InFlightRegistry(cache, poll_s=0.01)
        waiter = InFlightRegistry(cache, poll_s=0.01)
        [key] = _keys(1)
        owner.claim([key])
        seen = []

        def done(k):
            seen.append(k)
            return len(seen) >= 3  # "publishes" on the third poll

        assert waiter.wait([key], done=done, timeout_s=5.0) == []
        assert len(seen) >= 3

    def test_vanished_lease_without_entry_returns_early(self, cache):
        owner = InFlightRegistry(cache, poll_s=0.01)
        waiter = InFlightRegistry(cache, poll_s=0.01)
        [key] = _keys(1)
        owner.claim([key])
        polls = []

        def done(k):
            # The owner "crashes" (lease released, nothing published)
            # after the first poll; the waiter must hand the key back
            # instead of burning the whole timeout.
            if len(polls) == 1:
                owner.release_all()
            polls.append(k)
            return False

        missing = waiter.wait([key], done=done, timeout_s=30.0)
        assert missing == [key]
        assert len(polls) < 20  # early return, not a 30s spin

    def test_only_the_orphan_comes_back(self, cache):
        owner = InFlightRegistry(cache, poll_s=0.01)
        waiter = InFlightRegistry(cache, poll_s=0.01)
        orphan, live = _keys(2)
        owner.claim([orphan, live])
        polls = []

        def done(k):
            # The owner drops ``orphan`` unpublished right away and
            # publishes ``live`` a few polls later: the waiter must keep
            # waiting on ``live`` and hand back ``orphan`` only.
            polls.append(k)
            if len(polls) == 2:
                owner.publish(orphan)
            if k == live and len(polls) >= 8:
                owner.publish(live)
                return True
            return False

        assert waiter.wait([orphan, live], done=done, timeout_s=30.0) == [
            orphan
        ]
        assert owner.in_flight == 0

    def test_deadline_returns_the_still_missing_keys(self, cache):
        owner = InFlightRegistry(cache, poll_s=0.01)
        waiter = InFlightRegistry(cache, poll_s=0.01)
        keys = _keys(2)
        owner.claim(keys)
        missing = waiter.wait(keys, done=lambda k: False, timeout_s=0.1)
        assert missing == keys

    def test_heartbeat_refreshes_lease_mtimes(self, cache):
        import os

        reg = InFlightRegistry(cache)
        [key] = _keys(1)
        reg.claim([key])
        lease = reg.lease_path(key)
        old = lease.stat().st_mtime - 120.0
        os.utime(lease, (old, old))
        reg.heartbeat_all()
        assert lease.stat().st_mtime > old + 60.0
