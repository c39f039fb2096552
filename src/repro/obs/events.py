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
* ``WorkerDied``/``PoolDegraded`` — the
  experiment engine's own crash tolerance (``repro.resilience``):
  harness-level recovery applied to the harness itself;
* ``TaskStarted``/``PhaseChanged``/``TaskFinished`` — one task's
  lifecycle on the live telemetry channel (``repro.obs.telemetry``).

Harness events stamp harness wall time (ns since the fan-out or the
task started) rather than simulated time, and always carry the
machine-wide core id.

Every other channel is a fold over these events: the run's
:class:`~repro.obs.metrics.MetricsRegistry`, the campaign's
:class:`~repro.obs.telemetry.aggregate.CampaignTelemetry` and the
runner's :class:`~repro.experiments.progress.ProgressTracker` footers.
So an event carries every value its folds need (``CheckpointEnd`` the
per-cluster flush costs, ``RecoveryEnd`` the restored and recomputed
counts).

``EVENT_TYPES`` maps wire names back to classes, and
:func:`event_from_dict` is the one strict decoder of a wire dict (the
JSONL linter and every pipe or socket receiver use it); a new event
type only needs to be added here.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Callable, ClassVar, Dict, Tuple, Type

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
    "TaskStarted",
    "PhaseChanged",
    "TaskFinished",
    "EVENT_TYPES",
    "event_from_dict",
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
        """JSON-safe mapping: ``name`` plus every dataclass field (tuple
        fields as lists, as JSON carries them)."""
        doc: Dict[str, Any] = {"name": self.name}
        for f in fields(self):
            value = getattr(self, f.name)
            doc[f.name] = list(value) if isinstance(value, tuple) else value
        return doc


@dataclass(frozen=True, slots=True)
class CheckpointBegin(TraceEvent):
    """The boundary protocol of checkpoint ``index`` started."""

    index: int

    name: ClassVar[str] = "checkpoint_begin"


@dataclass(frozen=True, slots=True)
class CheckpointEnd(TraceEvent):
    """Checkpoint ``index`` was established; closing-interval totals.

    ``boundary_ns`` is the costliest cluster's boundary time, and
    ``cluster_flushed_bytes``/``cluster_barrier_ns`` list each
    cluster's flush and barrier in establishment order.
    ``addrmap_occupancy`` counts the live AddrMap entries over every
    core (``-1`` when the run has no AddrMap).
    """

    index: int
    duration_ns: float
    logged_records: int
    omitted_records: int
    logged_bytes: int
    flushed_bytes: int
    boundary_ns: float
    cluster_flushed_bytes: Tuple[int, ...]
    cluster_barrier_ns: Tuple[float, ...]
    addrmap_occupancy: int

    name: ClassVar[str] = "checkpoint_end"


@dataclass(frozen=True, slots=True)
class IntervalBoundary(TraceEvent):
    """Interval ``index`` closed (stamped on the useful-time axis);
    ``instructions`` is the run's cumulative count at the boundary."""

    index: int
    instructions: int

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
    """Recovery regenerated one omitted value via its embedded Slice
    of ``length`` instructions."""

    slice_id: int
    length: int
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
    restored_records: int
    recomputed_values: int

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
class TaskStarted(TraceEvent):
    """A task began executing (``pid`` of the executing process)."""

    pid: int

    name: ClassVar[str] = "task_started"


@dataclass(frozen=True, slots=True)
class PhaseChanged(TraceEvent):
    """The task entered execution phase ``phase`` (see
    :data:`repro.obs.telemetry.profile.PHASES`)."""

    phase: str

    name: ClassVar[str] = "phase_changed"


@dataclass(frozen=True, slots=True)
class TaskFinished(TraceEvent):
    """The task's execution ended (``ok`` False on an exception).

    ``phase_seconds``/``phase_counts`` carry the task's
    :class:`~repro.obs.telemetry.profile.PhaseProfiler` totals, so the
    parent attributes campaign wall-clock without a second channel.
    """

    ok: bool
    seconds: float
    phase_seconds: Dict[str, float]
    phase_counts: Dict[str, int]

    name: ClassVar[str] = "task_finished"


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
    TaskStarted,
    PhaseChanged,
    TaskFinished,
)

#: Wire name -> event class (drives the exporters, the JSONL linter and
#: the decoder).
EVENT_TYPES: Dict[str, Type[TraceEvent]] = {
    cls.name: cls for cls in _EVENT_CLASSES
}


# -- the strict decoder -------------------------------------------------------
def _scalar(ok: Callable[[Any], bool], what: str, cast=None):
    def check(v: Any) -> Any:
        if isinstance(v, bool) != (what == "a bool") or not ok(v):
            raise ValueError(f"must be {what}")
        return cast(v) if cast is not None else v
    return check


def _tuple_of(item: Callable[[Any], Any]) -> Callable[[Any], tuple]:
    def check(v: Any) -> tuple:
        if not isinstance(v, (list, tuple)):
            raise ValueError("must be a list")
        return tuple(item(x) for x in v)
    return check


def _dict_of(item: Callable[[Any], Any]) -> Callable[[Any], dict]:
    def check(v: Any) -> dict:
        if not isinstance(v, dict) or not all(isinstance(k, str) for k in v):
            raise ValueError("must be an object with string keys")
        return {k: item(x) for k, x in v.items()}
    return check


_FLOAT = _scalar(lambda v: isinstance(v, (int, float)), "a number", float)
_INT = _scalar(lambda v: isinstance(v, int), "an int")

#: Field annotation -> checker returning the decoded value (or raising
#: ``ValueError``; a bool is never a number).  Every field type the
#: vocabulary uses is listed; a new one fails at import until it is.
_CHECKERS: Dict[str, Callable[[Any], Any]] = {
    "float": _FLOAT,
    "int": _INT,
    "str": _scalar(lambda v: isinstance(v, str), "a string"),
    "bool": _scalar(lambda v: True, "a bool"),
    "Tuple[int, ...]": _tuple_of(_INT),
    "Tuple[float, ...]": _tuple_of(_FLOAT),
    "Dict[str, float]": _dict_of(_FLOAT),
    "Dict[str, int]": _dict_of(_INT),
}

#: Wire name -> (class, ((field, checker), ...)).
_SCHEMAS: Dict[str, Tuple[Type[TraceEvent], Tuple[Tuple[str, Any], ...]]] = {
    cls.name: (cls, tuple((f.name, _CHECKERS[f.type]) for f in fields(cls)))
    for cls in _EVENT_CLASSES
}


def event_from_dict(doc: Any) -> TraceEvent:
    """Decode one wire dict (:meth:`TraceEvent.to_dict` output).

    Strict: a non-object, an unknown name, a missing or extra field, a
    wrongly typed value (a bool is not an int), a negative ``ts_ns`` or
    a core id below ``-1`` raises ``ValueError``.  The input comes from
    outside the process (a worker pipe, a socket, a JSONL file), so
    nothing is guessed.
    """
    if not isinstance(doc, dict):
        raise ValueError("not a JSON object")
    name = doc.get("name")
    schema = _SCHEMAS.get(name) if isinstance(name, str) else None
    if schema is None:
        raise ValueError(f"unknown event name {name!r}")
    cls, checks = schema
    present = set(doc) - {"name"}
    required = {f for f, _ in checks}
    if present != required:
        problems = [f"missing field {f!r}" for f in sorted(required - present)]
        problems += [f"has unknown field {f!r}"
                     for f in sorted(present - required, key=repr)]
        raise ValueError(f"{name} {', '.join(problems)}")
    kwargs: Dict[str, Any] = {}
    for field_name, check in checks:
        try:
            kwargs[field_name] = check(doc[field_name])
        except ValueError as exc:
            raise ValueError(f"{name} field {field_name!r} {exc}") from None
    if kwargs["ts_ns"] < 0:
        raise ValueError(f"{name}: ts_ns must be a non-negative number")
    if kwargs["core"] < -1:
        raise ValueError(f"{name}: core must be an int >= -1")
    return cls(**kwargs)
