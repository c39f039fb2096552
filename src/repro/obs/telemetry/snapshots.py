"""Periodic campaign-telemetry snapshots: JSONL beside the result cache.

The aggregator's rolling state is serialised every ``min_interval_s``
(plus once at close) into an append-only JSONL file that lives beside
the result cache, so a campaign that dies — or is SIGKILLed by a
chaos test — leaves a post-mortem trail that ``acr-repro monitor
--replay`` can render and future HTTP subscribers can tail.

Writes are :func:`repro.util.atomicio.append_line`'s whole-line
``O_APPEND`` appends.  The reader ignores a torn **final** line
silently, skips an undecodable interior line with a warning, and
discards the whole file with a warning on a schema version mismatch.
"""

from __future__ import annotations

import json
import time
import warnings
from pathlib import Path
from typing import Any, Callable, Dict, List, Union

from repro.util.atomicio import append_line

__all__ = [
    "TELEMETRY_SCHEMA_VERSION",
    "SNAPSHOT_KIND",
    "SNAPSHOT_FIELDS",
    "SnapshotWriter",
    "read_snapshots",
]

#: Bump when the snapshot layout changes; old files are then ignored
#: (with a warning) rather than misread.
TELEMETRY_SCHEMA_VERSION = 1

#: The ``kind`` discriminator (telemetry snapshots share the JSONL
#: linter with trace events).
SNAPSHOT_KIND = "telemetry-snapshot"

#: Exactly the keys every snapshot carries besides ``v``/``kind`` — the
#: aggregator builds them and the JSONL linter enforces them, so the
#: wire contract cannot drift silently.
SNAPSHOT_FIELDS = (
    "ts_s",
    "elapsed_s",
    "frames",
    "malformed",
    "workers",
    "busy",
    "queue_depth",
    "tasks_started",
    "tasks_finished",
    "tasks_active",
    "counters",
    "rates",
    "phase_seconds",
    "phase_counts",
    "progress",
)


class SnapshotWriter:
    """Rate-limited append-only snapshot stream (one JSON object/line)."""

    def __init__(
        self,
        path: Union[str, Path],
        min_interval_s: float = 0.5,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.path = Path(path)
        self.min_interval_s = min_interval_s
        self._clock = clock
        self._last: float = float("-inf")
        self.written = 0

    def due(self) -> bool:
        """Whether enough time passed since the last write."""
        return self._clock() - self._last >= self.min_interval_s

    def write(self, snapshot: Dict[str, Any]) -> None:
        """Unconditionally append one version-stamped snapshot line
        (atomic at line level: a single ``O_APPEND`` write).

        A torn tail left by a crashed campaign is repaired first
        (:func:`~repro.util.atomicio.append_line`): this snapshot starts
        on a fresh line instead of merging into — and corrupting — the
        torn record.
        """
        doc = {"v": TELEMETRY_SCHEMA_VERSION, "kind": SNAPSHOT_KIND}
        doc.update(snapshot)
        append_line(self.path, json.dumps(doc, sort_keys=True))
        self._last = self._clock()
        self.written += 1

    def maybe_write(
        self, snapshot_fn: Callable[[], Dict[str, Any]]
    ) -> bool:
        """Write ``snapshot_fn()`` if due (lazy: the snapshot is only
        built when it will actually be written)."""
        if not self.due():
            return False
        self.write(snapshot_fn())
        return True


def read_snapshots(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Every committed snapshot, in write order.

    Tolerant by construction: no file ⇒ empty;
    torn final line ⇒ ignored; corrupt interior line (not UTF-8, not
    JSON) ⇒ skipped with a warning; any schema-version mismatch ⇒ the
    whole file is discarded with a warning (replay degrades to nothing,
    never a crash).
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError:
        return []
    # Committed snapshots end with a newline: the final ``split`` slot is
    # empty on a clean file and a torn half-record after a crash — either
    # way it is not a snapshot.
    body = raw.split(b"\n")[:-1]
    snapshots: List[Dict[str, Any]] = []
    for lineno, chunk in enumerate(body, start=1):
        try:
            # Decoded line by line: bytes that are not UTF-8 cost only
            # their own line (a UnicodeDecodeError is a ValueError).
            line = chunk.decode("utf-8")
            if not line.strip():
                continue
            doc = json.loads(line)
            if not isinstance(doc, dict):
                raise ValueError("snapshot line is not an object")
        except ValueError:
            warnings.warn(
                f"{path}:{lineno}: undecodable telemetry snapshot skipped",
                stacklevel=2,
            )
            continue
        version = doc.get("v")
        if version != TELEMETRY_SCHEMA_VERSION:
            warnings.warn(
                f"{path}: telemetry schema version {version!r} != "
                f"{TELEMETRY_SCHEMA_VERSION}; ignoring the snapshot stream",
                stacklevel=2,
            )
            return []
        if doc.get("kind") != SNAPSHOT_KIND:
            warnings.warn(
                f"{path}:{lineno}: unexpected record kind "
                f"{doc.get('kind')!r} skipped",
                stacklevel=2,
            )
            continue
        snapshots.append(doc)
    return snapshots
