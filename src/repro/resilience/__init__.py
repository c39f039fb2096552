"""Crash-tolerant execution for the experiment engine.

ACR's premise is that recovery from rare faults must be cheap and
bit-exact: go back to the last safe state and re-execute
deterministically.  The harness that fans thousands of simulations and
injection trials out over worker processes follows the same discipline
through the per-cache-key **claim**, :class:`KeyLock` (DESIGN §3.4).
Every runner, and every forked worker of a ``--jobs N`` fan-out,
simulates a key only under its claim and publishes the result through
the shared disk cache, so each key is simulated at most once.  A claim
whose owner died is broken at once; one whose owner hung goes stale
after the runner's ``lock_stale_s`` (``--timeout``) and is broken by a
waiting peer.

The published cache entry is a key's only completion record, the
harness's checkpoint: a re-run against the same cache directory reads
back every finished key and simulates only the rest, and its report is
bit-identical to an undisturbed run's.

There is no retry policy: a simulation is deterministic, so a task that
raises fails the same way again, and a worker that dies is simply
respawned to resolve whatever is still unpublished.  Results are
bit-identical whether a key was simulated undisturbed, after its first
worker was SIGKILLed, or in-process after workers kept dying (chaos
tests pin this).
"""

from repro.resilience.locks import KeyLock

__all__ = ["KeyLock"]
