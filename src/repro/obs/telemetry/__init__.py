"""Campaign-level live telemetry (advisory, results-neutral).

Telemetry speaks the one event vocabulary of :mod:`repro.obs.events`:
a task's lifecycle (``task_started``, ``phase_changed``,
``task_finished``) and the simulator's per-boundary
``interval_boundary``/``checkpoint_end`` pair, each tagged with the
task that emitted it.  Layers, bottom-up:

* :mod:`~repro.obs.telemetry.emit` — ambient per-process emission and
  the wire frame (one task-tagged event);
* :mod:`~repro.obs.telemetry.profile` — per-task phase self-profiling;
* :mod:`~repro.obs.telemetry.aggregate` — campaign-wide fold;
* :mod:`~repro.obs.telemetry.snapshots` — durable JSONL snapshots;
* :mod:`~repro.obs.telemetry.monitor` — live TTY dashboard + replay.

The whole stack is opt-in: with no sink installed the simulator's hot
path keeps its byte-identical behaviour (pinned by test and by the <2%
benchmark guardrail).
"""

from repro.obs.telemetry.aggregate import CampaignTelemetry

# NOTE: the ``emit`` *function* is intentionally not re-exported here —
# the package attribute ``repro.obs.telemetry.emit`` must keep naming the
# submodule (re-binding it to the function would shadow the module for
# every ``from repro.obs.telemetry import emit`` importer).
from repro.obs.telemetry.emit import (
    EventSink,
    current_task,
    frame_context,
    frame_dict,
    task_telemetry,
    telemetry_active,
)
from repro.obs.telemetry.monitor import Monitor, render_snapshot, replay
from repro.obs.telemetry.profile import PHASES, PhaseProfiler
from repro.obs.telemetry.snapshots import (
    SNAPSHOT_FIELDS,
    SNAPSHOT_KIND,
    TELEMETRY_SCHEMA_VERSION,
    SnapshotWriter,
    read_snapshots,
)

__all__ = [
    "CampaignTelemetry",
    "EventSink",
    "current_task",
    "frame_context",
    "frame_dict",
    "task_telemetry",
    "telemetry_active",
    "Monitor",
    "render_snapshot",
    "replay",
    "PHASES",
    "PhaseProfiler",
    "SNAPSHOT_FIELDS",
    "SNAPSHOT_KIND",
    "TELEMETRY_SCHEMA_VERSION",
    "SnapshotWriter",
    "read_snapshots",
]
