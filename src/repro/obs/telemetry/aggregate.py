"""Campaign-wide telemetry aggregation.

:class:`CampaignTelemetry` is the parent-side fold over a campaign's
event stream: task-tagged :mod:`repro.obs.events` events streamed out
of workers (or emitted inline), pool gauges reported by the fan-out
parent as its workers come and go, the
:class:`~repro.experiments.progress.ProgressTracker`'s cache/resilience
counters, and the parent's own :class:`PhaseProfiler` (its own cache
I/O).  It maintains rolling gauges (worker utilization, queue depth,
active tasks), cumulative counters (sim-iterations, log records) and
the campaign's phase attribution, and periodically serialises the
whole state as a JSONL snapshot beside the completion journal
(:mod:`repro.obs.telemetry.snapshots`).

Everything here is advisory and receiver-side tolerant: a malformed
frame is counted and dropped, a subscriber exception is swallowed, and
nothing feeds back into results.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.obs.events import (
    CheckpointEnd,
    IntervalBoundary,
    PhaseChanged,
    TaskFinished,
    TaskStarted,
    TraceEvent,
    event_from_dict,
)
from repro.obs.telemetry.profile import PhaseProfiler
from repro.obs.telemetry.snapshots import SnapshotWriter

__all__ = ["CampaignTelemetry"]

#: The wire frame's keys (see :func:`repro.obs.telemetry.emit.frame_dict`).
_FRAME_KEYS = frozenset(("task", "event"))


class CampaignTelemetry:
    """Merge events + progress + pool gauges into campaign-wide state.

    ``progress`` (optional) is the runner's ProgressTracker — its cache
    and resilience counters ride along in every snapshot.  With
    ``snapshot_path`` set, a rate-limited :class:`SnapshotWriter` appends
    the rolling state as JSONL (plus one final snapshot on
    :meth:`close`).  ``subscribers`` (e.g. the live monitor) are called
    with this object after every state change and rate-limit themselves.
    """

    def __init__(
        self,
        progress=None,
        snapshot_path: Optional[Union[str, Path]] = None,
        snapshot_interval_s: float = 0.5,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.progress = progress
        #: Campaign-wide phase attribution: the parent's own phases
        #: (cache I/O) plus every ``task_finished`` event's totals.
        self.profiler = PhaseProfiler()
        self.writer: Optional[SnapshotWriter] = (
            SnapshotWriter(snapshot_path, min_interval_s=snapshot_interval_s,
                           clock=clock)
            if snapshot_path is not None
            else None
        )
        self.subscribers: List[Callable[["CampaignTelemetry"], None]] = []
        self._clock = clock
        self._t0 = clock()
        # Frame accounting.
        self.frames = 0
        self.malformed = 0
        # Task lifecycle.
        self.tasks_started = 0
        self.tasks_finished = 0
        self.tasks_failed = 0
        #: Live tasks: label -> {worker, pid, interval, phase}.
        self.active: Dict[str, Dict[str, Any]] = {}
        # Cumulative counters folded off interval-boundary and
        # checkpoint-end events.
        self.counters: Dict[str, int] = {}
        self._last_instructions: Dict[str, int] = {}
        # Pool gauges (fan-out parent; zeros for inline execution).
        self.workers = 0
        self.busy = 0
        self.queue_depth = 0
        self._closed = False

    # ------------------------------------------------------------- ingestion --
    def on_event(self, task: str, event: TraceEvent, worker: int = -1) -> None:
        """Fold one event of ``task`` in (the inline-execution sink)."""
        self.frames += 1
        if isinstance(event, TaskStarted):
            self.tasks_started += 1
            self.active[task] = {
                "worker": worker, "pid": event.pid, "interval": -1,
                "phase": "",
            }
        elif isinstance(event, IntervalBoundary):
            entry = self.active.setdefault(
                task,
                {"worker": worker, "pid": -1, "interval": -1, "phase": ""},
            )
            entry["interval"] = event.index
            last = self._last_instructions.get(task, 0)
            # Cumulative per run; a nested run (a dependent's inline
            # baseline) restarts the count — treat a drop as a restart.
            delta = (
                event.instructions - last
                if event.instructions >= last
                else event.instructions
            )
            self._last_instructions[task] = event.instructions
            self._count("instructions", delta)
        elif isinstance(event, CheckpointEnd):
            # The closing interval's totals.
            self._count("logged_records", event.logged_records)
            self._count("omitted_records", event.omitted_records)
            self._count("logged_bytes", event.logged_bytes)
            self._count("flushed_bytes", event.flushed_bytes)
        elif isinstance(event, PhaseChanged):
            entry = self.active.get(task)
            if entry is not None:
                entry["phase"] = event.phase
        elif isinstance(event, TaskFinished):
            self.tasks_finished += 1
            if not event.ok:
                self.tasks_failed += 1
            self.active.pop(task, None)
            self._last_instructions.pop(task, None)
            self.profiler.merge(event.phase_seconds, event.phase_counts)
        self._changed()

    def on_frame_dict(self, doc: Any, worker: int = -1) -> None:
        """Fold one wire frame in (a worker pipe's or the daemon's): a
        ``{"task": label, "event": event dict}`` object, decoded
        strictly; one that fails to decode is counted malformed and
        dropped."""
        try:
            if not isinstance(doc, dict) or set(doc) != _FRAME_KEYS:
                raise ValueError("a frame is a {task, event} object")
            task = doc["task"]
            if not isinstance(task, str):
                raise ValueError("a frame's task must be a string")
            event = event_from_dict(doc["event"])
        except ValueError:
            self.malformed += 1
            return
        self.on_event(task, event, worker=worker)

    def update_pool(self, workers: int, busy: int, queue_depth: int) -> None:
        """Pool gauges, reported by the fan-out parent as workers come
        and go and keys are published."""
        self.workers = workers
        self.busy = busy
        self.queue_depth = queue_depth
        self._changed()

    def _count(self, name: str, n: int) -> None:
        if n:
            self.counters[name] = self.counters.get(name, 0) + n

    def _changed(self) -> None:
        if self.writer is not None:
            self.writer.maybe_write(self.snapshot)
        for subscriber in self.subscribers:
            try:
                subscriber(self)
            except Exception:
                pass  # advisory: a broken dashboard must not kill a run

    # --------------------------------------------------------------- queries --
    @property
    def snapshots_written(self) -> int:
        return self.writer.written if self.writer is not None else 0

    def elapsed_s(self) -> float:
        return self._clock() - self._t0

    def snapshot(self) -> Dict[str, Any]:
        """The rolling state as one JSON-safe dict (exactly
        :data:`~repro.obs.telemetry.snapshots.SNAPSHOT_FIELDS`)."""
        elapsed = self.elapsed_s()
        rates: Dict[str, float] = {
            "frames_per_s": round(self.frames / elapsed, 3) if elapsed else 0.0,
            "iterations_per_s": (
                round(self.counters.get("instructions", 0) / elapsed, 3)
                if elapsed else 0.0
            ),
            "utilization": (
                round(self.busy / self.workers, 3) if self.workers else 0.0
            ),
        }
        progress_doc: Dict[str, Any] = {}
        progress = self.progress
        if progress is not None:
            progress_doc = {
                "runs": progress.total_runs + progress.memo_hits,
                "simulated": progress.simulated,
                "disk_hits": progress.disk_hits,
                "disk_misses": progress.disk_misses,
                "hit_rate": round(progress.hit_rate, 4),
                "worker_deaths": progress.worker_deaths,
                "degraded_to_serial": progress.degraded_to_serial,
                "resumed": progress.resumed,
                "vector_replayed": progress.vector_replayed,
                "vector_fallback": progress.vector_fallback,
                "events_dropped": progress.events_dropped,
            }
        return {
            "ts_s": time.time(),
            "elapsed_s": round(elapsed, 3),
            "frames": self.frames,
            "malformed": self.malformed,
            "workers": self.workers,
            "busy": self.busy,
            "queue_depth": self.queue_depth,
            "tasks_started": self.tasks_started,
            "tasks_finished": self.tasks_finished,
            "tasks_active": sorted(self.active),
            "counters": dict(sorted(self.counters.items())),
            "rates": rates,
            "phase_seconds": {
                k: round(v, 6) for k, v in sorted(self.profiler.seconds.items())
            },
            "phase_counts": dict(sorted(self.profiler.counts.items())),
            "progress": progress_doc,
        }

    def attribution_table(self) -> str:
        """The campaign's wall-clock attribution (phases across every
        task plus the parent's cache I/O)."""
        return self.profiler.attribution_table(
            title="campaign wall-clock attribution"
        )

    # ----------------------------------------------------------------- close --
    def close(self) -> Dict[str, Any]:
        """Write the final snapshot (unconditionally) and return it."""
        snap = self.snapshot()
        if not self._closed:
            self._closed = True
            if self.writer is not None:
                self.writer.write(snap)
        return snap
