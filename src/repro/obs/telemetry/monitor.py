"""Live campaign dashboard + snapshot replay.

:class:`Monitor` subscribes to a :class:`CampaignTelemetry` and
re-renders a compact status block at most every ``refresh_s``.  On a
real terminal it repaints in place (cursor-home + clear); on anything
else — pipes, CI logs, ``TERM=dumb`` — it appends plain separator-ruled
blocks, so the dashboard is safe to leave on everywhere.

:func:`replay` renders a recorded ``telemetry.jsonl`` snapshot stream
(the file :class:`~repro.obs.telemetry.snapshots.SnapshotWriter` leaves
beside the result cache) for post-mortem inspection of campaigns
that died mid-flight.

Both paths render from the *snapshot dict*, never from live aggregator
internals, so a replayed frame looks exactly like the live one did.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, TextIO, Union

from repro.obs.telemetry.snapshots import read_snapshots

__all__ = ["render_snapshot", "Monitor", "replay"]

#: ANSI repaint: cursor home + clear-to-end (only on real terminals).
_REPAINT = "\x1b[H\x1b[J"
_RULE = "-" * 64


def _fmt_rate(value: float) -> str:
    """Human-scale a per-second rate: ``1234567 -> '1.2M'``."""
    for threshold, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if value >= threshold:
            return f"{value / threshold:.1f}{suffix}"
    return f"{value:.1f}"


def render_snapshot(snap: Dict[str, Any]) -> str:
    """One snapshot as a multi-line status block (pure string)."""
    lines: List[str] = []
    lines.append(
        f"campaign telemetry — elapsed {snap.get('elapsed_s', 0.0):.1f}s, "
        f"{snap.get('frames', 0)} frames "
        f"({snap.get('malformed', 0)} malformed)"
    )
    workers = snap.get("workers", 0)
    rates = snap.get("rates", {})
    if workers:
        lines.append(
            f"pool: {workers} workers, {snap.get('busy', 0)} busy "
            f"({100.0 * rates.get('utilization', 0.0):.0f}% utilization), "
            f"queue depth {snap.get('queue_depth', 0)}"
        )
    else:
        lines.append("pool: inline execution (no worker pool)")
    active = snap.get("tasks_active", [])
    lines.append(
        f"tasks: {snap.get('tasks_started', 0)} started, "
        f"{snap.get('tasks_finished', 0)} finished, {len(active)} active"
    )
    if active:
        shown = ", ".join(active[:4])
        more = f" (+{len(active) - 4} more)" if len(active) > 4 else ""
        lines.append(f"  active: {shown}{more}")
    counters = snap.get("counters", {})
    phase_counts = snap.get("phase_counts", {})
    lines.append(
        f"throughput: {_fmt_rate(rates.get('iterations_per_s', 0.0))} "
        f"sim-iterations/s, {phase_counts.get('plan-build', 0)} plans built"
    )
    interesting = {
        k: v for k, v in counters.items() if k != "instructions"
    }
    if interesting:
        lines.append(
            "counters: "
            + ", ".join(f"{k} {v}" for k, v in sorted(interesting.items()))
        )
    phase_seconds = snap.get("phase_seconds", {})
    if phase_seconds:
        total = sum(phase_seconds.values()) or 1.0
        parts = [
            f"{name} {seconds:.2f}s ({100.0 * seconds / total:.0f}%)"
            for name, seconds in sorted(
                phase_seconds.items(), key=lambda kv: -kv[1]
            )
        ]
        lines.append("phases: " + ", ".join(parts))
    progress = snap.get("progress", {})
    if progress:
        lookups = progress.get("disk_hits", 0) + progress.get("disk_misses", 0)
        lines.append(
            f"cache: {progress.get('disk_hits', 0)}/{lookups} disk hits "
            f"({100.0 * progress.get('hit_rate', 0.0):.1f}%), "
            f"{progress.get('runs', 0)} runs, "
            f"{progress.get('simulated', 0)} simulated"
        )
        lines.append(
            f"resilience: {progress.get('worker_deaths', 0)} worker deaths"
        )
    return "\n".join(lines)


def _supports_repaint(stream: TextIO) -> bool:
    """In-place ANSI repaint only on a real, capable terminal."""
    if os.environ.get("TERM", "") in ("", "dumb"):
        return False
    try:
        return bool(stream.isatty())
    except Exception:
        return False


class Monitor:
    """Rate-limited live renderer; subscribe via :meth:`attach`."""

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        refresh_s: float = 0.5,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.stream: TextIO = stream if stream is not None else sys.stderr
        self.refresh_s = refresh_s
        self._clock = clock
        self._last: float = float("-inf")
        self._repaint = _supports_repaint(self.stream)
        self.renders = 0

    def attach(self, telemetry) -> "Monitor":
        """Subscribe to ``telemetry``'s change notifications."""
        telemetry.subscribers.append(self.update)
        return self

    def update(self, telemetry) -> None:
        """Change notification: re-render if the refresh interval passed."""
        if self._clock() - self._last < self.refresh_s:
            return
        self.render(telemetry.snapshot())

    def render(self, snap: Dict[str, Any]) -> None:
        """Unconditionally draw one snapshot."""
        block = render_snapshot(snap)
        if self._repaint:
            self.stream.write(_REPAINT + block + "\n")
        else:
            self.stream.write(_RULE + "\n" + block + "\n")
        self.stream.flush()
        self._last = self._clock()
        self.renders += 1

    def finish(self, snap: Dict[str, Any]) -> None:
        """Final frame: always plain (it must survive in scrollback)."""
        self.stream.write(_RULE + "\n" + render_snapshot(snap) + "\n")
        self.stream.flush()
        self.renders += 1


def replay(
    path: Union[str, Path], stream: Optional[TextIO] = None
) -> int:
    """Render every snapshot in ``path`` sequentially; returns an exit
    status (0 rendered something, 1 empty stream, 2 no such file)."""
    out: TextIO = stream if stream is not None else sys.stdout
    path = Path(path)
    if not path.exists():
        out.write(f"monitor: no snapshot file at {path}\n")
        return 2
    snapshots = read_snapshots(path)
    if not snapshots:
        out.write(f"monitor: no committed snapshots in {path}\n")
        return 1
    for snap in snapshots:
        out.write(_RULE + "\n" + render_snapshot(snap) + "\n")
    first, last = snapshots[0], snapshots[-1]
    out.write(_RULE + "\n")
    out.write(
        f"replayed {len(snapshots)} snapshots from {path} "
        f"(campaign span {last.get('elapsed_s', 0.0) - first.get('elapsed_s', 0.0):.1f}s, "
        f"final: {last.get('tasks_finished', 0)} tasks finished, "
        f"{last.get('frames', 0)} frames)\n"
    )
    return 0
