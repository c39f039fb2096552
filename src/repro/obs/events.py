"""Typed trace events emitted by the instrumented simulation pipeline.

Each event is a frozen dataclass stamped with the emitting core's
simulated time (``ts_ns``, wall-clock axis: useful + overhead) and the
core id (``-1`` for machine-wide events such as checkpoint boundaries).
The event vocabulary mirrors the paper's mechanisms:

* ``CheckpointBegin``/``CheckpointEnd``/``IntervalBoundary`` — the
  coordinated boundary protocol (§II-A);
* ``LogWrite`` — the memory controller's first-modification handling:
  ``taken=True`` is a baseline log append, ``taken=False`` an ACR
  omission (§III-A);
* ``AddrMapInsert``/``AddrMapEvict``/``AddrMapHit`` — the checkpoint
  handler's AddrMap traffic (Fig. 4a);
* ``SliceRecompute`` — one omitted value regenerated during recovery
  (Fig. 4b);
* ``RecoveryBegin``/``RecoveryEnd`` — the rollback + recomputation
  episode (Eqs. 2/3);
* ``FaultInjected``/``RecoveryVerified``/``RecoveryDiverged`` — the
  fault-injection campaign engine (``repro.inject``): a bit flip landed
  in live state, and the recovered state either matched the golden
  re-execution bit-exactly or did not (§III-B's consistent recovery
  line, checked rather than assumed);
* ``WorkerDied``/``PoolDegraded``/``CampaignResumed`` — the
  experiment engine's own crash tolerance (``repro.resilience``):
  harness-level recovery applied to the harness itself.  These stamp
  harness wall time (ns since the fan-out started) rather than
  simulated time, and always carry the machine-wide core id.

``EVENT_TYPES`` maps wire names back to classes; the JSONL linter and
the round-trip tests are driven from it, so a new event type only needs
to be added here.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, ClassVar, Dict, Tuple, Type

__all__ = [
    "TraceEvent",
    "CheckpointBegin",
    "CheckpointEnd",
    "IntervalBoundary",
    "LogWrite",
    "AddrMapInsert",
    "AddrMapEvict",
    "AddrMapHit",
    "SliceRecompute",
    "RecoveryBegin",
    "RecoveryEnd",
    "FaultInjected",
    "RecoveryVerified",
    "RecoveryDiverged",
    "WorkerDied",
    "PoolDegraded",
    "CampaignResumed",
    "EVENT_TYPES",
]

#: Core id used for machine-wide events (boundaries, recoveries).
MACHINE = -1


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """Base event: simulated timestamp (ns, wall axis) plus core id."""

    ts_ns: float
    core: int

    #: Wire name of the event (stable across refactors; used by the
    #: exporters and the JSONL schema linter).
    name: ClassVar[str] = "event"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe mapping: ``name`` plus every dataclass field."""
        doc: Dict[str, Any] = {"name": self.name}
        for f in fields(self):
            doc[f.name] = getattr(self, f.name)
        return doc


@dataclass(frozen=True, slots=True)
class CheckpointBegin(TraceEvent):
    """The boundary protocol of checkpoint ``index`` started."""

    index: int

    name: ClassVar[str] = "checkpoint_begin"


@dataclass(frozen=True, slots=True)
class CheckpointEnd(TraceEvent):
    """Checkpoint ``index`` was established; closing-interval totals."""

    index: int
    duration_ns: float
    logged_records: int
    omitted_records: int
    logged_bytes: int
    flushed_bytes: int

    name: ClassVar[str] = "checkpoint_end"


@dataclass(frozen=True, slots=True)
class IntervalBoundary(TraceEvent):
    """Interval ``index`` closed (stamped on the useful-time axis)."""

    index: int

    name: ClassVar[str] = "interval_boundary"


@dataclass(frozen=True, slots=True)
class LogWrite(TraceEvent):
    """A first-modification reached the log: taken (logged) or skipped
    (ACR proved the old value recomputable — no log traffic)."""

    address: int
    line: int
    size_bytes: int
    taken: bool

    name: ClassVar[str] = "log_write"


@dataclass(frozen=True, slots=True)
class AddrMapInsert(TraceEvent):
    """An ``ASSOC-ADDR`` recorded an association (operand count noted)."""

    address: int
    operands: int

    name: ClassVar[str] = "addrmap_insert"


@dataclass(frozen=True, slots=True)
class AddrMapEvict(TraceEvent):
    """An association was masked or refused.

    ``reason``: ``invalidated`` (plain store planted a tombstone),
    ``rejected`` (AddrMap / operand-buffer capacity), ``replaced``
    (re-association within the open generation).
    """

    address: int
    reason: str

    name: ClassVar[str] = "addrmap_evict"


@dataclass(frozen=True, slots=True)
class AddrMapHit(TraceEvent):
    """A committed-generation lookup justified omitting a log write."""

    address: int

    name: ClassVar[str] = "addrmap_hit"


@dataclass(frozen=True, slots=True)
class SliceRecompute(TraceEvent):
    """Recovery regenerated one omitted value via its embedded Slice."""

    slice_id: int
    ns: float

    name: ClassVar[str] = "slice_recompute"


@dataclass(frozen=True, slots=True)
class RecoveryBegin(TraceEvent):
    """Error ``error_index`` was detected; rollback starts."""

    error_index: int
    safe_checkpoint: int

    name: ClassVar[str] = "recovery_begin"


@dataclass(frozen=True, slots=True)
class RecoveryEnd(TraceEvent):
    """Recovery for ``error_index`` completed; cost breakdown attached."""

    error_index: int
    duration_ns: float
    waste_ns: float
    rollback_ns: float
    recompute_ns: float

    name: ClassVar[str] = "recovery_end"


@dataclass(frozen=True, slots=True)
class FaultInjected(TraceEvent):
    """The injection engine flipped ``bit`` in live state.

    ``target`` is the state class hit (``mem``, ``log``, ``addrmap`` or
    ``arch``); ``address`` is the corrupted memory address (or the
    address keying the corrupted log record / AddrMap entry; ``-1`` for
    architectural-register flips).
    """

    target: str
    address: int
    bit: int

    name: ClassVar[str] = "fault_injected"


@dataclass(frozen=True, slots=True)
class RecoveryVerified(TraceEvent):
    """Recovered state matched the golden re-execution bit-exactly."""

    safe_checkpoint: int
    addresses_checked: int

    name: ClassVar[str] = "recovery_verified"


@dataclass(frozen=True, slots=True)
class RecoveryDiverged(TraceEvent):
    """One address disagreed with the golden state after recovery."""

    address: int
    interval: int
    expected: int
    actual: int

    name: ClassVar[str] = "recovery_diverged"


@dataclass(frozen=True, slots=True)
class WorkerDied(TraceEvent):
    """A fan-out worker process was killed by a signal (SIGKILL, OOM);
    ``label`` names the worker, which is respawned."""

    label: str
    pid: int

    name: ClassVar[str] = "worker_died"


@dataclass(frozen=True, slots=True)
class PoolDegraded(TraceEvent):
    """Fan-out workers died ``failures`` times in a row with no key
    published in between; the remaining keys resolve in-process."""

    failures: int

    name: ClassVar[str] = "pool_degraded"


@dataclass(frozen=True, slots=True)
class CampaignResumed(TraceEvent):
    """A run resumed against a completion journal: ``journaled`` of the
    requested tasks were already done, ``pending`` remained."""

    journaled: int
    pending: int

    name: ClassVar[str] = "campaign_resumed"


_EVENT_CLASSES: Tuple[Type[TraceEvent], ...] = (
    CheckpointBegin,
    CheckpointEnd,
    IntervalBoundary,
    LogWrite,
    AddrMapInsert,
    AddrMapEvict,
    AddrMapHit,
    SliceRecompute,
    RecoveryBegin,
    RecoveryEnd,
    FaultInjected,
    RecoveryVerified,
    RecoveryDiverged,
    WorkerDied,
    PoolDegraded,
    CampaignResumed,
)

#: Wire name -> event class (drives the exporters and the JSONL linter).
EVENT_TYPES: Dict[str, Type[TraceEvent]] = {
    cls.name: cls for cls in _EVENT_CLASSES
}
