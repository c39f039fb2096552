"""Run observability: per-run timing, cache counters, summary table.

Every simulation the :class:`~repro.experiments.runner.ExperimentRunner`
performs — or serves from memory or disk — is recorded here, so a paper
regeneration can answer "where did the time go?" and tests can assert
the cache actually worked (e.g. a warm second pass serves ≥95% of runs
from disk).

Sources, in increasing cost order:

``memo``   — the in-process memo dictionary (free);
``disk``   — the persistent :class:`~repro.experiments.cache.ResultCache`;
``sim``    — a fresh simulation, executed in-process;
``worker`` — a fresh simulation, executed in a forked fan-out worker.

The crash-tolerance counters fold the runner's harness events
(:meth:`ProgressTracker.emit`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.obs.events import CampaignResumed, PoolDegraded, WorkerDied
from repro.util.tables import format_table

__all__ = ["RunRecord", "ProgressTracker"]

_SOURCES = ("disk", "sim", "worker")


@dataclass(frozen=True)
class RunRecord:
    """One observed run: what ran, where it came from, how long it took."""

    workload: str
    config: str
    source: str
    seconds: float
    #: True when the run carried an enabled tracer and/or a metrics
    #: registry — traced runs never come from (or go to) the cache.
    traced: bool = False

    def __post_init__(self) -> None:
        if self.source not in _SOURCES:
            raise ValueError(
                f"source must be one of {_SOURCES}, got {self.source!r}"
            )


@dataclass
class ProgressTracker:
    """Accumulates :class:`RunRecord` events plus cache hit/miss counters.

    ``echo`` (optional) receives one formatted line per event — the CLI
    wires it to stderr for live progress; tests leave it unset.
    """

    echo: Optional[Callable[[str], None]] = None
    records: List[RunRecord] = field(default_factory=list)
    memo_hits: int = 0
    disk_hits: int = 0
    disk_misses: int = 0
    events_captured: int = 0
    events_dropped: int = 0
    # Crash-tolerance accounting (repro.resilience), folded off the
    # harness events: a clean run reports visible zeros, so silence is
    # an assertion, not a gap.
    worker_deaths: int = 0
    degraded_to_serial: int = 0
    resumed: int = 0
    # Vector-engine coverage (iterations, summed over inline sims that
    # reported it): how much of the executed work replayed from plans
    # versus falling back to the classic loop.
    vector_replayed: int = 0
    vector_fallback: int = 0
    # Snapshot-fork accounting (repro.sim.snapshot): trials executed by
    # forking the shared golden pass instead of replaying from step 0.
    forked_trials: int = 0
    # Live-telemetry accounting (repro.obs.telemetry): set once at the
    # end of a campaign that ran with a CampaignTelemetry attached.
    # ``telemetry_attached`` keeps the zeros visible — a campaign that
    # streamed nothing reports that, it does not go silent.
    telemetry_frames: int = 0
    telemetry_snapshots: int = 0
    telemetry_attached: bool = False
    # Cache-corruption accounting: entries the ResultCache deleted after
    # a failed decode.  Always shown with a visible zero — a clean cache
    # is an assertion, not a gap.
    quarantined: int = 0

    # ------------------------------------------------------------------ events --
    def record(self, workload: str, config: str, source: str,
               seconds: float, traced: bool = False) -> None:
        """Record one completed run fetch/execution."""
        rec = RunRecord(workload, config, source, seconds, traced)
        self.records.append(rec)
        if source == "disk":
            self.disk_hits += 1
        if self.echo is not None:
            suffix = " +trace" if rec.traced else ""
            self.echo(
                f"[{rec.source:>6}] {rec.workload:>4} {rec.config:<14}"
                f" {rec.seconds * 1e3:9.1f} ms{suffix}"
            )

    def record_miss(self, n: int = 1) -> None:
        """Count disk-cache misses (the runs will be simulated)."""
        self.disk_misses += n

    def record_memo(self) -> None:
        """Count one in-process memo hit (free; not a timed record)."""
        self.memo_hits += 1

    def record_tracing(self, captured: int, dropped: int) -> None:
        """Accumulate one traced run's event capture/drop counts."""
        self.events_captured += captured
        self.events_dropped += dropped

    # -------------------------------------------------------------- resilience --
    def emit(self, event: object) -> None:
        """Fold one harness event: a fan-out worker killed by a signal
        (it is respawned), a fan-out whose workers kept dying (the rest
        of its keys resolve in-process), or tasks skipped because the
        completion journal already holds them (``--resume``)."""
        if isinstance(event, WorkerDied):
            self.worker_deaths += 1
        elif isinstance(event, PoolDegraded):
            self.degraded_to_serial += 1
            if self.echo is not None:
                self.echo("[degrade] workers keep dying; continuing serially")
        elif isinstance(event, CampaignResumed):
            self.resumed += event.journaled

    def record_vector_coverage(self, replayed: int, fallback: int) -> None:
        """Accumulate one vector-engine run's coverage counters."""
        self.vector_replayed += replayed
        self.vector_fallback += fallback

    def record_forked(self, n: int = 1) -> None:
        """Count trials executed on the forked-snapshot plan."""
        self.forked_trials += n

    def record_quarantine(self, n: int = 1) -> None:
        """Count cache entries quarantined (deleted as corrupt)."""
        self.quarantined += n
        if self.echo is not None:
            self.echo("[quarantine] corrupt cache entry deleted")

    def record_telemetry(self, frames: int, snapshots: int) -> None:
        """Record a finished campaign's telemetry totals (frame count
        and snapshot lines written) for the summary footer."""
        self.telemetry_attached = True
        self.telemetry_frames = frames
        self.telemetry_snapshots = snapshots

    # ----------------------------------------------------------------- queries --
    @property
    def total_runs(self) -> int:
        """All observed run fetches (any source)."""
        return len(self.records)

    @property
    def simulated(self) -> int:
        """Runs that actually executed a simulation."""
        return sum(1 for r in self.records if r.source in ("sim", "worker"))

    @property
    def hit_rate(self) -> float:
        """Fraction of disk lookups that hit (0.0 when none were made)."""
        lookups = self.disk_hits + self.disk_misses
        return self.disk_hits / lookups if lookups else 0.0

    @property
    def traced_runs(self) -> int:
        """Runs executed with observability attached."""
        return sum(1 for r in self.records if r.traced)

    def tracing_line(self) -> str:
        """One-line event-capture summary of every traced run."""
        return (
            f"trace: {self.events_captured} events captured / "
            f"{self.events_dropped} dropped"
        )

    def by_source(self) -> Dict[str, int]:
        """Event counts per source."""
        counts = {s: 0 for s in _SOURCES}
        for r in self.records:
            counts[r.source] += 1
        return counts

    def elapsed_seconds(self, source: Optional[str] = None) -> float:
        """Total recorded wall time, optionally for one source."""
        return sum(
            r.seconds for r in self.records
            if source is None or r.source == source
        )

    # ----------------------------------------------------------------- reports --
    def summary_line(self) -> str:
        """One-line fetch/execution summary (the campaign CLI footer)."""
        counts = self.by_source()
        parts = [f"memo {self.memo_hits}"] + [
            f"{src} {counts[src]}" for src in _SOURCES
        ]
        return (
            f"runs: {self.total_runs + self.memo_hits} "
            f"({', '.join(parts)}) in {self.elapsed_seconds():.2f}s"
        )

    def summary_table(self) -> str:
        """The observability summary the CLI prints after a regeneration."""
        counts = self.by_source()
        rows = [["memo", self.memo_hits, 0.0]]
        rows += [
            [src, counts[src], round(self.elapsed_seconds(src), 3)]
            for src in _SOURCES
        ]
        rows.append(["TOTAL", self.total_runs + self.memo_hits,
                     round(self.elapsed_seconds(), 3)])
        table = format_table(
            ["source", "runs", "seconds"], rows, title="run summary"
        )
        # Footer block: the labels are padded to one shared column so
        # the sections align however many are present (zeros included).
        footers: List[str] = []
        lookups = self.disk_hits + self.disk_misses
        if lookups:
            footers.append(
                f"disk cache: {self.disk_hits}/{lookups} hits "
                f"({100.0 * self.hit_rate:.1f}%)"
            )
        if self.events_captured or self.events_dropped:
            footers.append(self.tracing_line())
        if self.vector_replayed or self.vector_fallback:
            footers.append(self.vector_line())
        if self.forked_trials:
            footers.append(self.forked_line())
        footers.append(self.resilience_line())
        footers.append(self.cache_line())
        if self.telemetry_attached:
            footers.append(self.telemetry_line())
        width = max(len(line.split(":", 1)[0]) for line in footers)
        for line in footers:
            label, rest = line.split(":", 1)
            table += f"\n{label:<{width}}:{rest}"
        return table

    def vector_line(self) -> str:
        """One-line vector-engine coverage summary (inline sims only)."""
        total = self.vector_replayed + self.vector_fallback
        pct = 100.0 * self.vector_replayed / total if total else 0.0
        return (
            f"vector: {self.vector_replayed}/{total} iterations replayed "
            f"({pct:.1f}% coverage, {self.vector_fallback} fallback)"
        )

    def forked_line(self) -> str:
        """One-line snapshot-fork summary (executed trials only)."""
        return (
            f"snapshots: {self.forked_trials} trials forked from "
            f"golden boundaries"
        )

    def resilience_line(self) -> str:
        """One-line crash-tolerance summary (zeros on clean runs)."""
        return (
            f"resilience: {self.worker_deaths} worker deaths, "
            f"{self.degraded_to_serial} degraded-to-serial, "
            f"{self.resumed} resumed from journal"
        )

    def cache_line(self) -> str:
        """One-line cache-integrity summary (zero on a healthy cache)."""
        return (
            f"cache: {self.quarantined} corrupt entries quarantined"
        )

    def telemetry_line(self) -> str:
        """One-line live-telemetry summary (only shown when a campaign
        ran with telemetry attached; zeros stay visible)."""
        return (
            f"telemetry: {self.telemetry_frames} frames streamed, "
            f"{self.telemetry_snapshots} snapshots written"
        )

    def reset(self) -> None:
        """Drop all records and counters (new measurement window)."""
        self.records.clear()
        self.memo_hits = 0
        self.disk_hits = 0
        self.disk_misses = 0
        self.events_captured = 0
        self.events_dropped = 0
        self.worker_deaths = 0
        self.degraded_to_serial = 0
        self.resumed = 0
        self.vector_replayed = 0
        self.vector_fallback = 0
        self.forked_trials = 0
        self.telemetry_frames = 0
        self.telemetry_snapshots = 0
        self.telemetry_attached = False
        self.quarantined = 0


class _Timer:
    """Tiny context helper: ``with _Timer() as t: ...; t.seconds``."""

    def __enter__(self) -> "_Timer":
        self._t0 = time.perf_counter()
        self.seconds = 0.0
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._t0
