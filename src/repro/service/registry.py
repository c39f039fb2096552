"""The in-flight task registry: per-key leases dedupe concurrent clients.

Two clients submitting overlapping sweeps must not both pay for the
shared simulations.  The registry claims a **lease** per canonical key —
an advisory :class:`~repro.resilience.locks.KeyLock` living beside the
cache entry (``.lease`` suffix, deliberately distinct from the runner's
own ``.lock`` coordination so the two never contend) — and splits each
submission's key set into *mine* (leases won: this connection simulates
them) and *theirs* (someone else is already computing them: wait for the
published entry instead).

The guarantees mirror the lock layer's philosophy: best-effort dedupe
over a correct-by-construction store.  Cache writes are atomic and
idempotent, so a lease lost to a crash merely costs one duplicated
simulation after the staleness window — never a wrong result.  Leases
are heartbeaten per completed task (wired through the runner's
``supervisor_hooks``) so long campaigns are not broken as stale.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, List, Tuple

from repro.resilience.locks import KeyLock

__all__ = ["InFlightRegistry"]


class InFlightRegistry:
    """Lease table over one shared cache keyspace."""

    def __init__(
        self,
        cache,
        stale_s: float = 600.0,
        poll_s: float = 0.05,
    ) -> None:
        self.cache = cache
        self.stale_s = stale_s
        self.poll_s = poll_s
        #: Currently-held leases, by key.
        self._held: Dict[str, KeyLock] = {}

    def lease_path(self, key: str):
        """Where ``key``'s lease lives: beside the entry, distinct from
        the runner's ``.lock`` so registry and runner never contend."""
        return self.cache.lock_path(key).with_suffix(".lease")

    # ----------------------------------------------------------------- claim --
    def claim(self, keys: Iterable[str]) -> Tuple[List[str], List[str]]:
        """One non-blocking claim attempt per key.

        Returns ``(mine, theirs)``: keys whose lease this registry now
        holds (the caller must simulate and then :meth:`publish` them)
        and keys currently leased by another in-flight submission (the
        caller should :meth:`wait` for their entries)."""
        mine: List[str] = []
        theirs: List[str] = []
        for key in keys:
            if key in self._held:
                mine.append(key)
                continue
            lock = KeyLock(
                self.lease_path(key), wait_s=0.0, stale_s=self.stale_s,
                poll_s=self.poll_s,
            )
            if lock.try_acquire():
                self._held[key] = lock
                mine.append(key)
            else:
                theirs.append(key)
        return mine, theirs

    def publish(self, key: str) -> None:
        """Release ``key``'s lease — its result is in the store now."""
        lock = self._held.pop(key, None)
        if lock is not None:
            lock.release()

    def release_all(self) -> None:
        """Drop every held lease (connection teardown / error path)."""
        for key in list(self._held):
            self.publish(key)

    # ------------------------------------------------------------- liveness --
    def heartbeat_all(self) -> None:
        """Refresh every held lease's mtime (call per completed task —
        bounds the staleness clock by one task, not one campaign)."""
        for lock in self._held.values():
            lock.heartbeat()

    @property
    def in_flight(self) -> int:
        """Leases currently held by this registry."""
        return len(self._held)

    # ---------------------------------------------------------------- wait --
    def wait(
        self,
        keys: Iterable[str],
        done: Callable[[str], bool],
        timeout_s: float = 600.0,
    ) -> List[str]:
        """Block until every key is either ``done`` (another submission
        published it) or *orphaned* — its lease vanished without a
        published entry, because its owner crashed between release and
        store, or never stored.  Keys whose lease is live are waited on.

        Returns the orphans, plus any key still missing at the deadline.
        The caller must re-:meth:`claim` the returned keys before
        simulating them: two waiters then never both simulate one
        orphan, and a wedged peer's lease is broken once it is stale.
        """
        pending = [k for k in keys if not done(k)]
        orphans: List[str] = []
        deadline = time.monotonic() + timeout_s
        while pending and time.monotonic() < deadline:
            still: List[str] = []
            for key in pending:
                if done(key):
                    continue
                if self.lease_path(key).exists():
                    still.append(key)
                    continue
                # Lease gone, entry absent: give the store one poll
                # interval to surface the entry (release can race the
                # visibility of the write) before calling it orphaned.
                time.sleep(self.poll_s)
                if not done(key):
                    orphans.append(key)
            pending = still
            if pending:
                time.sleep(self.poll_s)
        return orphans + [k for k in pending if not done(k)]
