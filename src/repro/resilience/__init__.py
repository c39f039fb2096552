"""Supervised, resumable execution for the experiment engine.

ACR's premise is that recovery from rare faults must be cheap and
bit-exact; this package applies the same discipline to the harness that
fans thousands of simulations and injection trials out over worker
processes.  The layers mirror the paper's vocabulary (DESIGN §3.4):

* :class:`ResiliencePolicy` — retry/timeout/backoff knobs.  Backoff is
  exponential with *seeded, deterministic* jitter, so a rerun of a flaky
  campaign schedules byte-identical retry delays (the harness analogue
  of deterministic re-execution).
* :class:`Supervisor` — a crash-tolerant worker pool: per-task
  wall-clock timeouts enforced by a watchdog, dead-worker detection
  with respawn (the "rollback + re-execute" of the harness), and a
  circuit breaker that degrades to serial in-process execution after
  repeated pool failures.
* :class:`CompletionJournal` — a write-ahead completion log (JSONL,
  atomic appends) beside the result cache: the harness's checkpoint.
  An interrupted regeneration or campaign resumes exactly where it
  stopped, and a resumed run's report is bit-identical to an
  undisturbed one.
* :class:`KeyLock` — the best-effort per-cache-key claim, so concurrent
  runners sharing one cache directory do not redundantly simulate.
* :class:`FailureReport` — per-task attempt history (what retried, why,
  after which backoff), attached to campaign/report output.

Everything here is harness-level: simulation results are bit-identical
whether a task succeeded first try, was retried after a SIGKILL, or ran
serially after the pool degraded (chaos tests pin this).
"""

from repro.resilience.journal import (
    JOURNAL_SCHEMA_VERSION,
    CompletionJournal,
    JournalRecord,
)
from repro.resilience.locks import KeyLock
from repro.resilience.policy import ResiliencePolicy
from repro.resilience.report import AttemptRecord, FailureReport, TaskHistory
from repro.resilience.supervisor import (
    SupervisedTask,
    Supervisor,
    TaskFailedError,
)

__all__ = [
    "AttemptRecord",
    "CompletionJournal",
    "FailureReport",
    "JOURNAL_SCHEMA_VERSION",
    "JournalRecord",
    "KeyLock",
    "ResiliencePolicy",
    "SupervisedTask",
    "Supervisor",
    "TaskFailedError",
    "TaskHistory",
]
