"""Crash-tolerant, resumable execution for the experiment engine.

ACR's premise is that recovery from rare faults must be cheap and
bit-exact: go back to the last safe state and re-execute
deterministically.  The harness that fans thousands of simulations and
injection trials out over worker processes follows the same discipline
with two pieces (DESIGN §3.4):

* :class:`KeyLock` — the per-cache-key **claim**.  Every runner, and
  every forked worker of a ``--jobs N`` fan-out, simulates a key only
  under its claim and publishes the result through the shared disk
  cache, so each key is simulated at most once.  A claim whose owner
  died is broken at once; one whose owner hung goes stale after
  the runner's ``lock_stale_s`` (``--timeout``) and is broken by a
  waiting peer.
* :class:`CompletionJournal` — a write-ahead completion log (JSONL,
  atomic appends) beside the result cache: the harness's checkpoint.
  An interrupted regeneration or campaign resumes exactly where it
  stopped, and a resumed run's report is bit-identical to an
  undisturbed one.

There is no retry policy: a simulation is deterministic, so a task that
raises fails the same way again, and a worker that dies is simply
respawned to resolve whatever is still unpublished.  Results are
bit-identical whether a key was simulated undisturbed, after its first
worker was SIGKILLed, or in-process after workers kept dying (chaos
tests pin this).
"""

from repro.resilience.journal import (
    JOURNAL_SCHEMA_VERSION,
    CompletionJournal,
    JournalRecord,
)
from repro.resilience.locks import KeyLock

__all__ = [
    "CompletionJournal",
    "JOURNAL_SCHEMA_VERSION",
    "JournalRecord",
    "KeyLock",
]
