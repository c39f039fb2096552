"""Checkpoints and the retention-managed checkpoint store.

A checkpoint ``k`` is *established* at the end of interval ``k``; rolling
back from a point inside interval ``m`` to checkpoint ``j < m`` applies the
(possibly partial) log of interval ``m`` plus the full logs of intervals
``m−1 … j+1``, oldest-applied-last.  With detection latency bounded by the
period, two retained checkpoints suffice (paper §II-A) — the store clears
each log payload as it leaves that horizon but keeps size metadata for
statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional

from repro.ckpt.log import IntervalLog
from repro.util.validation import check_non_negative

__all__ = ["Checkpoint", "CheckpointStore", "RETAINED_CHECKPOINTS"]

#: The paper's retention: most recent two checkpoints.
RETAINED_CHECKPOINTS = 2


@dataclass
class Checkpoint:
    """Metadata of one established checkpoint.

    ``log`` is the log of the interval that *ended* at this checkpoint:
    its records hold the values live at the previous checkpoint, so
    applying it undoes that interval (undoing a younger interval needs
    the younger interval's log).  ``data_bytes`` / ``omitted_bytes``
    snapshot the sizes for statistics even after the log payload is
    pruned.  Treat a checkpoint as read-only once established.
    """

    index: int
    useful_ns: float
    wall_ns: float
    arch_bytes: int
    participants: Optional[FrozenSet[int]]
    log: IntervalLog
    data_bytes: int
    omitted_bytes: int

    @property
    def total_bytes(self) -> int:
        """Checkpoint footprint: logged data plus architectural state."""
        return self.data_bytes + self.arch_bytes


class CheckpointStore:
    """Orders checkpoints, manages the open interval log and retention."""

    def __init__(self, arch_bytes_per_core: int, num_cores: int) -> None:
        check_non_negative("arch_bytes_per_core", arch_bytes_per_core)
        self.arch_bytes_per_core = arch_bytes_per_core
        self.num_cores = num_cores
        self.checkpoints: List[Checkpoint] = []
        self.current_log = IntervalLog(0)

    # -- establishment -----------------------------------------------------
    def establish(
        self,
        useful_ns: float,
        wall_ns: float,
        participants: Optional[FrozenSet[int]] = None,
    ) -> Checkpoint:
        """Close the open interval and establish the next checkpoint.

        ``participants=None`` means a global checkpoint (all cores'
        architectural state is captured); a core subset models coordinated
        local checkpointing.
        """
        n_cores = self.num_cores if participants is None else len(participants)
        log = self.current_log
        ckpt = Checkpoint(
            len(self.checkpoints), useful_ns, wall_ns,
            self.arch_bytes_per_core * n_cores, participants, log,
            log.logged_bytes, log.omitted_bytes,
        )
        self.checkpoints.append(ckpt)
        self.current_log = IntervalLog(len(self.checkpoints))
        self._prune()
        return ckpt

    def _prune(self) -> None:
        """Drop the log payload that just left the retention window.

        The payload of checkpoint ``k``'s log is needed to roll back *to*
        checkpoint ``k−1``; retaining two checkpoints therefore keeps the
        logs of the two most recent completed intervals.  Each
        establishment pushes exactly one log out of that window, and
        every older one was cleared when it left, so one clear per
        boundary keeps the invariant: only the two youngest completed
        logs hold payloads.
        """
        if len(self.checkpoints) > RETAINED_CHECKPOINTS:
            log = self.checkpoints[-RETAINED_CHECKPOINTS - 1].log
            log.records.clear()
            log.omitted.clear()

    # -- rollback ---------------------------------------------------------------
    def logs_to_rollback(self, safe_index: int) -> List[IntervalLog]:
        """Logs to apply to reach checkpoint ``safe_index``.

        Returns logs newest-first: the open (partial) interval log followed
        by completed interval logs down to (and including) the log of
        interval ``safe_index + 1``.  Raises when retention has already
        dropped a needed log — recovery beyond two checkpoints back is
        impossible, exactly as in the paper's scheme.
        """
        if safe_index >= len(self.checkpoints):
            raise ValueError(
                f"safe checkpoint {safe_index} not established yet "
                f"({len(self.checkpoints)} exist)"
            )
        if safe_index < len(self.checkpoints) - RETAINED_CHECKPOINTS:
            raise ValueError(
                f"checkpoint {safe_index} is beyond the retention horizon"
            )
        logs = [self.current_log]
        for ckpt in reversed(self.checkpoints[safe_index + 1 :]):
            logs.append(ckpt.log)
        return logs

    # -- statistics --------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of established checkpoints."""
        return len(self.checkpoints)

    def data_sizes(self) -> List[int]:
        """Per-checkpoint logged data bytes, in order."""
        return [c.data_bytes for c in self.checkpoints]

    def total_data_bytes(self) -> int:
        """Total logged data across all checkpoints."""
        return sum(c.data_bytes for c in self.checkpoints)

    def max_data_bytes(self) -> int:
        """Size of the largest checkpoint (the paper's Max metric)."""
        return max((c.data_bytes for c in self.checkpoints), default=0)
