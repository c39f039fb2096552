"""Interval logs: the unit of incremental checkpointing.

One :class:`IntervalLog` covers one checkpoint interval and holds

* :class:`LogRecord` — old values actually written to the in-memory log
  (address + value: 16 bytes per record), and
* :class:`OmittedRecord` — values ACR *excluded* from the log because a
  committed AddrMap association proves them recomputable.  The record
  keeps the AddrMap entry (Slice + operand snapshot — on-chip state the
  hardware retains anyway) and, for verification only, the ground-truth
  old value the recomputation must reproduce.  The ground truth is never
  consulted by recovery itself; tests compare against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.arch.buffers import AddrMapEntry

__all__ = [
    "LOG_RECORD_BYTES",
    "VALUE_BYTES",
    "LogRecord",
    "OmittedRecord",
    "IntervalLog",
]

#: One log record: 8-byte address + 8-byte old value.
LOG_RECORD_BYTES = 16
#: One data value (a word).
VALUE_BYTES = 8


@dataclass(frozen=True, slots=True)
class LogRecord:
    """Old value logged on the first modification of ``address``."""

    address: int
    old_value: int
    core: int


@dataclass(frozen=True, slots=True)
class OmittedRecord:
    """A first-modification whose old value ACR omitted from the log."""

    address: int
    entry: AddrMapEntry
    core: int
    #: Verification-only: what the recomputation must produce.
    ground_truth_old_value: int


class IntervalLog:
    """Log of one checkpoint interval."""

    __slots__ = ("interval_index", "records", "omitted")

    def __init__(self, interval_index: int) -> None:
        self.interval_index = interval_index
        self.records: List[LogRecord] = []
        self.omitted: List[OmittedRecord] = []

    def add_record(self, address: int, old_value: int, core: int) -> LogRecord:
        """Log an old value (baseline path)."""
        rec = LogRecord(address, old_value, core)
        self.records.append(rec)
        return rec

    def add_omitted(
        self, address: int, entry: AddrMapEntry, core: int, ground_truth: int
    ) -> OmittedRecord:
        """Record an ACR omission (the log write is skipped)."""
        rec = OmittedRecord(address, entry, core, ground_truth)
        self.omitted.append(rec)
        return rec

    # -- sizes ---------------------------------------------------------------
    @property
    def logged_bytes(self) -> int:
        """Bytes actually written to the in-memory log."""
        return len(self.records) * LOG_RECORD_BYTES

    @property
    def omitted_bytes(self) -> int:
        """Bytes the baseline would have logged but ACR skipped."""
        return len(self.omitted) * LOG_RECORD_BYTES

    @property
    def baseline_bytes(self) -> int:
        """What the log would weigh without ACR."""
        return self.logged_bytes + self.omitted_bytes

    @property
    def handled_addresses(self) -> int:
        """Unique first-modified addresses in the interval."""
        return len(self.records) + len(self.omitted)

    def records_per_core(self) -> Dict[int, int]:
        """Logged-record count per core (drives per-controller traffic)."""
        out: Dict[int, int] = {}
        for rec in self.records:
            out[rec.core] = out.get(rec.core, 0) + 1
        return out

    def omitted_per_core(self) -> Dict[int, int]:
        """Omitted-value count per core."""
        out: Dict[int, int] = {}
        for rec in self.omitted:
            out[rec.core] = out.get(rec.core, 0) + 1
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"IntervalLog(#{self.interval_index}, logged={len(self.records)}, "
            f"omitted={len(self.omitted)})"
        )
