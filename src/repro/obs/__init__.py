"""Observability: one event vocabulary, and the folds over it.

This package is the profiling layer of the reproduction — per-event
visibility into the write path (which stores were amnesic and why),
the AddrMap (inserts, evictions, omission hits), checkpoint boundaries
and the recovery handler.  Each fact is emitted once, as a
:class:`TraceEvent`, into one sink per run; the run's
:class:`MetricsRegistry` (riding on ``RunResult.obs`` through the result
cache), the campaign telemetry and the progress footers are folds over
those events.

The layer is zero-overhead when disabled: the default
:class:`NullTracer` makes the simulator keep its untraced hot path
(guards are hoisted at run construction), and a guardrail bench pins
the disabled-path cost.  With a :class:`RecordingTracer`, runs export
to JSONL (:func:`write_jsonl`, linted by :mod:`repro.obs.lint`) and to
Chrome ``trace_event`` JSON (:func:`chrome_trace`) that opens directly
in Perfetto — see ``acr-repro trace`` / ``acr-repro stats``.
"""

from repro.obs.events import (
    EVENT_TYPES,
    AddrMapEvict,
    AddrMapHit,
    AddrMapInsert,
    CheckpointBegin,
    CheckpointEnd,
    IntervalBoundary,
    LogWrite,
    PhaseChanged,
    PoolDegraded,
    RecoveryBegin,
    RecoveryEnd,
    SliceRecompute,
    TaskFinished,
    TaskStarted,
    TraceEvent,
    WorkerDied,
    event_from_dict,
)
from repro.obs.export import (
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.lint import lint_event_dict, lint_jsonl
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
    ObsReport,
)
from repro.obs.tracer import NullTracer, RecordingTracer, TeeTracer, Tracer

__all__ = [
    # events
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
    "WorkerDied",
    "PoolDegraded",
    "TaskStarted",
    "PhaseChanged",
    "TaskFinished",
    "EVENT_TYPES",
    "event_from_dict",
    # tracers
    "Tracer",
    "NullTracer",
    "RecordingTracer",
    "TeeTracer",
    # metrics
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "ObsReport",
    "DEFAULT_BUCKETS",
    # exporters / lint
    "chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "validate_chrome_trace",
    "lint_event_dict",
    "lint_jsonl",
]
