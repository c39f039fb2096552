"""Ambient per-process event emission for live telemetry.

The simulator's hot path cannot thread a telemetry handle through every
call site (and must not ride on the run's
:class:`~repro.obs.tracer.Tracer` — attaching one forces the classic
engine and bypasses the result cache).  Instead, emission is *ambient*:
the execution harness installs a sink + task label around one task's
execution (:func:`task_telemetry`), and instrumented code calls
:func:`emit` with a :mod:`repro.obs.events` event, which is a no-op
returning immediately while no sink is installed.  Runs therefore behave
byte-identically with telemetry disabled — the only residue is one
hoisted ``is None`` check per hook site, pinned under 2% by the
benchmark guardrail.

The sink is called as ``sink(task, event)``: the ambient label tags
each event with the task that emitted it.  An inline sink folds the
event object; a fan-out worker's sink sends :func:`frame_dict` up its
pipe, and the daemon sends the same dict over its socket — a *frame*
is one task-tagged event on the wire.

Sinks are advisory by contract: any exception a sink raises (a full
pipe, a dead parent) is swallowed here so a telemetry failure can never
perturb — let alone kill — the task it is observing.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, Optional, Type

from repro.obs.events import MACHINE, TaskFinished, TaskStarted, TraceEvent

__all__ = [
    "EventSink",
    "telemetry_active",
    "current_task",
    "emit",
    "emit_harness",
    "frame_dict",
    "frame_context",
    "task_telemetry",
]

EventSink = Callable[[str, TraceEvent], None]

#: The installed sink (None = telemetry disabled for this process), the
#: label of the task currently executing under it, and the
#: ``perf_counter`` reading harness events are stamped from.
_SINK: Optional[EventSink] = None
_TASK: str = ""
_T0: float = 0.0


def telemetry_active() -> bool:
    """Whether a sink is installed (hoist this per run)."""
    return _SINK is not None


def current_task() -> str:
    """The active task label ("" outside any task context)."""
    return _TASK


def emit(event: TraceEvent) -> None:
    """Deliver ``event``, tagged with the task label — a no-op when no
    sink is installed.  Sink exceptions are swallowed (advisory)."""
    sink = _SINK
    if sink is None:
        return
    try:
        sink(_TASK, event)
    except Exception:
        pass


def emit_harness(cls: Type[TraceEvent], **fields: Any) -> None:
    """Build and deliver one harness event, stamped with the ns since
    the current context was installed and the machine-wide core id."""
    if _SINK is None:
        return
    emit(cls(ts_ns=(time.perf_counter() - _T0) * 1e9, core=MACHINE,
             **fields))


def frame_dict(task: str, event: TraceEvent) -> Dict[str, Any]:
    """The wire form of one task-tagged event (decoded, strictly, by
    :meth:`~repro.obs.telemetry.aggregate.CampaignTelemetry.on_frame_dict`)."""
    return {"task": task, "event": event.to_dict()}


@contextmanager
def frame_context(label: str, sink: Optional[EventSink]) -> Iterator[None]:
    """Install ``sink`` (and the task label) for the duration; nests."""
    global _SINK, _TASK, _T0
    prev = (_SINK, _TASK, _T0)
    _SINK, _TASK, _T0 = sink, label, time.perf_counter()
    try:
        yield
    finally:
        _SINK, _TASK, _T0 = prev


@contextmanager
def task_telemetry(label: str, sink: Optional[EventSink]) -> Iterator[Any]:
    """One task's full telemetry scope.

    Installs the sink, emits ``task_started``, activates a fresh
    :class:`~repro.obs.telemetry.profile.PhaseProfiler` (yielded), and
    on exit — success *or* exception — emits ``task_finished`` carrying
    the wall seconds and the profiler's per-phase attribution, then
    restores the previous ambient state.
    """
    from repro.obs.telemetry.profile import PhaseProfiler, activate

    profiler = PhaseProfiler()
    t0 = time.perf_counter()
    ok = False
    with frame_context(label, sink):
        emit_harness(TaskStarted, pid=os.getpid())
        try:
            with activate(profiler):
                yield profiler
            ok = True
        finally:
            emit_harness(
                TaskFinished,
                ok=ok,
                seconds=time.perf_counter() - t0,
                phase_seconds=dict(profiler.seconds),
                phase_counts=dict(profiler.counts),
            )
