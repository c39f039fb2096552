"""Tracer protocol: the zero-overhead-when-disabled event sink.

The simulator threads a :class:`Tracer` through every instrumented
layer.  The contract is deliberately tiny:

* ``enabled`` — hoisted by callers into a local guard, so a disabled
  tracer costs one attribute read at construction time and *nothing*
  per event (callers never build event objects when disabled);
* ``emit(event)`` — consume one :class:`~repro.obs.events.TraceEvent`.

:class:`NullTracer` is the default (disabled, no-op); a run with it is
bit-identical to an uninstrumented run — the simulator selects the
untraced fast path at construction.  :class:`RecordingTracer` captures
events in memory with an optional capacity bound; overflowing events
are counted as *dropped* rather than silently discarded, so the
"events captured / dropped" summary is always truthful.
:class:`TeeTracer` hands each event to several sinks in turn: a traced
run's simulator emits into one tee of its metrics registry (which folds
every event) and the caller's tracer (which may drop some).
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Sequence, runtime_checkable

from repro.obs.events import TraceEvent

__all__ = ["Tracer", "NullTracer", "RecordingTracer", "TeeTracer"]


@runtime_checkable
class Tracer(Protocol):
    """Structural interface every event sink implements."""

    #: When False, instrumented code paths must not emit (and the
    #: simulator falls back to the untraced hot path entirely).
    enabled: bool

    def emit(self, event: TraceEvent) -> None:
        """Consume one event."""
        ...


class NullTracer:
    """The default sink: disabled, drops everything, costs nothing."""

    enabled = False

    def emit(self, event: TraceEvent) -> None:
        """No-op (callers normally early-out before even building the
        event; this exists so the protocol is still honoured)."""


class RecordingTracer:
    """In-memory event capture with an optional capacity bound.

    ``capacity=None`` captures without bound; with a bound, events past
    the limit increment ``dropped`` instead of growing the buffer (the
    earliest events are kept — the interesting transient is usually the
    start of a run, and a stable prefix keeps exports deterministic).
    """

    enabled = True

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.events: List[TraceEvent] = []
        self.dropped = 0

    @property
    def captured(self) -> int:
        """Events retained in the buffer."""
        return len(self.events)

    def emit(self, event: TraceEvent) -> None:
        """Append ``event``, or count it as dropped past capacity."""
        if self.capacity is not None and len(self.events) >= self.capacity:
            self.dropped += 1
            return
        self.events.append(event)

    def clear(self) -> None:
        """Drop the buffer and reset the drop counter."""
        self.events.clear()
        self.dropped = 0


class TeeTracer:
    """Hands each event to every sink of ``sinks``, in order."""

    enabled = True

    def __init__(self, sinks: Sequence[Tracer]) -> None:
        self.sinks = tuple(sinks)

    def emit(self, event: TraceEvent) -> None:
        """Deliver ``event`` to each sink."""
        for sink in self.sinks:
            sink.emit(event)
