"""Typed telemetry frames streamed out of running tasks.

Where :mod:`repro.obs.events` records what the *simulated machine* did
(post-hoc, riding on ``RunResult.obs``), a telemetry frame reports what
the *harness* is doing right now: a worker picked a task up, crossed an
interval boundary, changed execution phase, or finished.  Frames cross
the supervisor's worker pipes as plain dicts while the task is still
running, so the campaign aggregator sees progress during a run, not
after it.

Frames are **advisory**: they never feed results, the simulator emits
them only when a sink is installed (zero frames — and the byte-identical
hot path — when disabled), and a malformed frame is dropped by the
receiver, never raised.

``FRAME_TYPES`` maps wire names back to classes; the JSONL linter and
the round-trip tests are driven from it (wire dicts use the ``"frame"``
key, so the shared linter can tell frames from trace events, which use
``"name"``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, ClassVar, Dict, Tuple, Type

from repro.util.validation import require_fields

__all__ = [
    "TelemetryFrame",
    "TaskStarted",
    "TaskHeartbeat",
    "PhaseChanged",
    "MetricsDelta",
    "TaskFinished",
    "FRAME_TYPES",
    "frame_from_dict",
]


@dataclass(frozen=True)
class TelemetryFrame:
    """Base frame: emission wall-clock time plus the emitting task."""

    #: Wall-clock epoch seconds at emission (harness time, not simulated
    #: time — frames are about the campaign, not the machine).
    ts_s: float
    #: Label of the task that emitted the frame, e.g. ``bt/ReCkpt_E``.
    task: str

    #: Wire name of the frame (stable across refactors; the dict key is
    #: ``"frame"`` so the JSONL linter can dispatch frames vs events).
    frame: ClassVar[str] = "frame"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe mapping: ``frame`` plus every dataclass field."""
        doc: Dict[str, Any] = {"frame": self.frame}
        for f in fields(self):
            doc[f.name] = getattr(self, f.name)
        return doc


@dataclass(frozen=True)
class TaskStarted(TelemetryFrame):
    """A task began executing (``pid`` of the executing process)."""

    pid: int

    frame: ClassVar[str] = "task_started"


@dataclass(frozen=True)
class TaskHeartbeat(TelemetryFrame):
    """The task crossed interval boundary ``interval`` and is alive.

    ``instructions`` is the run's cumulative instruction count at the
    boundary — the aggregator differentiates consecutive heartbeats into
    a sim-iterations/s gauge.
    """

    interval: int
    instructions: int

    frame: ClassVar[str] = "task_heartbeat"


@dataclass(frozen=True)
class PhaseChanged(TelemetryFrame):
    """The task entered execution phase ``phase`` (see
    :data:`repro.obs.telemetry.profile.PHASES`)."""

    phase: str

    frame: ClassVar[str] = "phase_changed"


@dataclass(frozen=True)
class MetricsDelta(TelemetryFrame):
    """Incremental per-interval counters (closing-interval totals)."""

    interval: int
    counters: Dict[str, int] = field(default_factory=dict)

    frame: ClassVar[str] = "metrics_delta"


@dataclass(frozen=True)
class TaskFinished(TelemetryFrame):
    """The task's execution ended (``ok`` False on an exception).

    ``phase_seconds``/``phase_counts`` carry the task's
    :class:`~repro.obs.telemetry.profile.PhaseProfiler` totals so the
    parent can attribute campaign wall-clock without a second channel.
    """

    ok: bool
    seconds: float
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    phase_counts: Dict[str, int] = field(default_factory=dict)

    frame: ClassVar[str] = "task_finished"


_FRAME_CLASSES: Tuple[Type[TelemetryFrame], ...] = (
    TaskStarted,
    TaskHeartbeat,
    PhaseChanged,
    MetricsDelta,
    TaskFinished,
)

#: Wire name -> frame class (drives the JSONL linter and the decoder).
FRAME_TYPES: Dict[str, Type[TelemetryFrame]] = {
    cls.frame: cls for cls in _FRAME_CLASSES
}

_NUMBER = (int, float)


def _check_number(name: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, _NUMBER):
        raise ValueError(f"frame field {name!r} must be a number")
    return float(value)


def _check_str_dict(name: str, value: Any, number: bool) -> None:
    if not isinstance(value, dict):
        raise ValueError(f"frame field {name!r} must be an object")
    for k, v in value.items():
        if not isinstance(k, str):
            raise ValueError(f"frame field {name!r} keys must be strings")
        if isinstance(v, bool) or not isinstance(
            v, _NUMBER if number else int
        ):
            raise ValueError(f"frame field {name!r} values must be numbers")


def frame_from_dict(doc: Any) -> TelemetryFrame:
    """Decode one wire dict; raises ``ValueError`` on any drift.

    The receiver (the supervisor's parent side) treats a failure here as
    "count it malformed and drop it" — a worker on a different code
    version must never crash the campaign.
    """
    if not isinstance(doc, dict):
        raise ValueError("frame is not an object")
    cls = FRAME_TYPES.get(doc.get("frame"))
    if cls is None:
        raise ValueError(f"unknown frame name {doc.get('frame')!r}")
    require_fields(doc, cls, cls.frame, extra=("frame",))
    kwargs: Dict[str, Any] = {}
    for f in fields(cls):
        value = doc[f.name]
        if f.name in ("ts_s", "seconds"):
            kwargs[f.name] = _check_number(f.name, value)
        elif f.name in ("task", "phase"):
            if not isinstance(value, str):
                raise ValueError(f"frame field {f.name!r} must be a string")
            kwargs[f.name] = value
        elif f.name in ("pid", "interval", "instructions"):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"frame field {f.name!r} must be an int")
            kwargs[f.name] = value
        elif f.name == "ok":
            if not isinstance(value, bool):
                raise ValueError("frame field 'ok' must be a bool")
            kwargs[f.name] = value
        elif f.name in ("counters", "phase_counts"):
            _check_str_dict(f.name, value, number=False)
            kwargs[f.name] = dict(value)
        elif f.name == "phase_seconds":
            _check_str_dict(f.name, value, number=True)
            kwargs[f.name] = {k: float(v) for k, v in value.items()}
        else:  # pragma: no cover - new fields must be classified above
            raise ValueError(f"unclassified frame field {f.name!r}")
    return cls(**kwargs)
