"""Lightweight self-profiling: where does a task's wall-clock go?

The harness has exactly five interesting phases per task —

* ``compile``    — ACR compilation (slice selection + embedding);
* ``plan-build`` — vector-engine trace-plan construction (cache miss);
* ``simulate``   — the execution loop itself;
* ``accounting`` — energy flush + ``RunResult`` assembly;
* ``cache-io``   — persistent result-cache reads/writes —

and a :class:`PhaseProfiler` accumulates seconds (and entry counts) per
phase.  Like :mod:`repro.obs.telemetry.emit`, activation is ambient:
instrumented code calls the module-level :func:`phase`, which returns
one shared null context when no profiler is active, so the plain path
pays one ``is None`` check and builds nothing.  Entering a phase with
telemetry enabled also emits a ``phase_changed`` event, and the
per-task totals ride home on the ``task_finished`` event for
campaign-wide attribution (:meth:`PhaseProfiler.attribution_table`).
"""

from __future__ import annotations

import time
from contextlib import AbstractContextManager, contextmanager, nullcontext
from typing import Dict, Iterator, Optional

from repro.obs.events import PhaseChanged
from repro.obs.telemetry import emit as _emit_mod
from repro.util.tables import format_table

__all__ = ["PHASES", "PhaseProfiler", "activate", "active", "phase", "count"]

#: The harness's phase vocabulary (profilers accept any name; these are
#: the ones the instrumented pipeline emits).
PHASES = ("compile", "plan-build", "simulate", "accounting", "cache-io")


class PhaseProfiler:
    """Per-phase wall-clock accumulator (seconds + entry counts)."""

    __slots__ = ("seconds", "counts")

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}

    def add(self, name: str, seconds: float, n: int = 1) -> None:
        """Fold ``seconds`` (one or more entries) into phase ``name``."""
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds
        self.counts[name] = self.counts.get(name, 0) + n

    def merge(
        self, seconds: Dict[str, float], counts: Optional[Dict[str, int]] = None
    ) -> None:
        """Fold another profiler's totals (e.g. off a ``task_finished``
        event) into this one."""
        for name, s in seconds.items():
            self.seconds[name] = self.seconds.get(name, 0.0) + s
        for name, n in (counts or {}).items():
            self.counts[name] = self.counts.get(name, 0) + n

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time one phase entry (emits ``phase_changed`` when telemetry
        is enabled)."""
        _emit_mod.emit_harness(PhaseChanged, phase=name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - t0)

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def attribution_table(self, title: str = "wall-clock attribution") -> str:
        """Per-phase seconds/%/entries, largest first."""
        total = self.total_seconds
        rows = [
            [
                name,
                round(self.seconds[name], 3),
                f"{100.0 * self.seconds[name] / total:.1f}%" if total else "n/a",
                self.counts.get(name, 0),
            ]
            for name in sorted(
                self.seconds, key=lambda n: -self.seconds[n]
            )
        ]
        rows.append(["TOTAL", round(total, 3), "100.0%" if total else "n/a",
                     sum(self.counts.values())])
        return format_table(
            ["phase", "seconds", "share", "entries"], rows, title=title
        )


#: The ambient profiler (None = self-profiling disabled).
_ACTIVE: Optional[PhaseProfiler] = None


def active() -> Optional[PhaseProfiler]:
    """The currently-installed profiler, if any."""
    return _ACTIVE


@contextmanager
def activate(profiler: PhaseProfiler) -> Iterator[PhaseProfiler]:
    """Install ``profiler`` as the ambient one for the duration; nests
    (an inner task's profiler shadows the campaign's)."""
    global _ACTIVE
    prev = _ACTIVE
    _ACTIVE = profiler
    try:
        yield profiler
    finally:
        _ACTIVE = prev


#: What :func:`phase` returns when no profiler is active.
_NO_PHASE: AbstractContextManager = nullcontext()


def phase(name: str) -> AbstractContextManager:
    """Time one phase entry on the ambient profiler — free when none."""
    prof = _ACTIVE
    if prof is None:
        return _NO_PHASE
    return prof.phase(name)


def count(name: str, n: int = 1) -> None:
    """Bump a phase's entry count without timing (e.g. cache hits)."""
    prof = _ACTIVE
    if prof is not None:
        prof.counts[name] = prof.counts.get(name, 0) + n
