"""Retry/timeout/backoff policy with deterministic, seeded jitter.

The policy is plain data: every knob the supervised pool consults lives
here, so an :class:`~repro.experiments.runner.ExperimentRunner` (or a
test) can describe its fault-handling in one value.  Backoff is the one
computed piece — exponential in the attempt number, capped, and
jittered by a hash of ``(seed, task key, attempt)`` rather than by a
live RNG.  Two properties follow, both pinned by tests:

* **determinism** — rerunning a campaign schedules byte-identical
  retry delays (the harness analogue of the paper's deterministic
  re-execution during recovery);
* **decorrelation** — distinct tasks failing together still spread
  their retries out, because the jitter is keyed by the task.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.util.validation import check_in_range, check_positive

__all__ = ["ResiliencePolicy"]


def _unit_hash(seed: int, key: str, attempt: int) -> float:
    """A deterministic draw in ``[0, 1)`` from (seed, key, attempt)."""
    digest = hashlib.sha256(
        f"{seed}:{key}:{attempt}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


@dataclass(frozen=True)
class ResiliencePolicy:
    """Everything the supervised pool needs to decide *when to give up*.

    ``max_retries`` bounds re-executions (a task runs at most
    ``1 + max_retries`` times); ``timeout_s`` is the per-attempt
    wall-clock budget (``None`` = no watchdog); the ``backoff_*`` family
    shapes the delay between attempts; ``pool_failure_threshold`` is the
    circuit breaker — after that many *consecutive* pool-level failures
    (worker deaths or timeouts, never ordinary task exceptions) the
    supervisor degrades to serial in-process execution.
    ``lock_stale_s`` is how old (by mtime) a per-key claim must be
    before a waiting runner presumes its owner dead and breaks it.
    """

    max_retries: int = 2
    timeout_s: float | None = None
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    jitter_fraction: float = 0.25
    seed: int = 0
    pool_failure_threshold: int = 3
    lock_stale_s: float = 600.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.timeout_s is not None:
            check_positive("timeout_s", self.timeout_s)
        check_positive("backoff_base_s", self.backoff_base_s)
        check_positive("backoff_factor", self.backoff_factor)
        check_positive("backoff_max_s", self.backoff_max_s)
        check_in_range("jitter_fraction", self.jitter_fraction, 0.0, 1.0)
        check_positive("pool_failure_threshold", self.pool_failure_threshold)
        check_positive("lock_stale_s", self.lock_stale_s)

    @property
    def max_attempts(self) -> int:
        """Total executions a task may consume (first try + retries)."""
        return 1 + self.max_retries

    def backoff_s(self, key: str, attempt: int) -> float:
        """Seconds to wait after ``attempt`` (1-based) of task ``key``.

        ``base * factor**(attempt-1)``, capped at ``backoff_max_s``,
        then jittered multiplicatively into
        ``[1 - jitter, 1 + jitter)`` by the seeded hash — a pure
        function of ``(seed, key, attempt)``.
        """
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        raw = min(
            self.backoff_max_s,
            self.backoff_base_s * self.backoff_factor ** (attempt - 1),
        )
        unit = _unit_hash(self.seed, key, attempt)
        return raw * (1.0 + self.jitter_fraction * (2.0 * unit - 1.0))

    def schedule(self, key: str) -> list[float]:
        """The full deterministic backoff schedule of a task (one delay
        per possible failed attempt) — what a rerun would reproduce."""
        return [
            self.backoff_s(key, attempt)
            for attempt in range(1, self.max_attempts)
        ]
