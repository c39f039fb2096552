"""JSONL schema linter (library + ``python -m repro.obs.lint``).

One record per line, each a JSON object of one of two kinds, told
apart by their discriminator key:

* trace events — ``"name"`` from :data:`repro.obs.events.EVENT_TYPES`,
  checked by the strict decoder :func:`repro.obs.events.event_from_dict`
  itself, so the linter and every receiver agree on what a valid event
  is;
* telemetry snapshots — ``"kind": "telemetry-snapshot"`` with exactly
  :data:`repro.obs.telemetry.snapshots.SNAPSHOT_FIELDS` plus the
  version stamp.

The smoke tests run this over freshly exported traces and telemetry
streams so the JSONL contracts cannot drift silently from their
dataclasses — the checks are derived from the dataclass fields (or the
published field tuple), never hand-listed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.obs.events import event_from_dict
from repro.obs.telemetry.snapshots import (
    SNAPSHOT_FIELDS,
    SNAPSHOT_KIND,
    TELEMETRY_SCHEMA_VERSION,
)

__all__ = [
    "lint_event_dict",
    "lint_snapshot_dict",
    "lint_record",
    "lint_jsonl",
    "main",
]


def lint_event_dict(obj: object, where: str = "event") -> List[str]:
    """Problems with one decoded JSONL event object (empty == valid)."""
    try:
        event_from_dict(obj)
    except ValueError as exc:
        return [f"{where}: {exc}"]
    return []


def lint_snapshot_dict(obj: object, where: str = "snapshot") -> List[str]:
    """Problems with one telemetry-snapshot object (empty == valid)."""
    if not isinstance(obj, dict):
        return [f"{where}: not a JSON object"]
    errors: List[str] = []
    version = obj.get("v")
    if version != TELEMETRY_SCHEMA_VERSION:
        errors.append(
            f"{where}: snapshot version {version!r} != "
            f"{TELEMETRY_SCHEMA_VERSION}"
        )
    required = set(SNAPSHOT_FIELDS)
    present = set(obj) - {"v", "kind"}
    for missing in sorted(required - present):
        errors.append(f"{where}: snapshot missing field {missing!r}")
    for extra in sorted(present - required):
        errors.append(f"{where}: snapshot has unknown field {extra!r}")
    return errors


def lint_record(obj: object, where: str = "record") -> List[str]:
    """Dispatch one decoded JSONL object to its kind's linter."""
    if isinstance(obj, dict) and obj.get("kind") == SNAPSHOT_KIND:
        return lint_snapshot_dict(obj, where)
    return lint_event_dict(obj, where)


def lint_jsonl(path: Union[str, Path]) -> Tuple[int, List[str]]:
    """Lint a JSONL file (events and snapshots may be mixed);
    returns ``(record_count, problems)``."""
    path = Path(path)
    errors: List[str] = []
    count = 0
    try:
        lines = path.read_bytes().splitlines()
    except OSError as exc:
        return 0, [f"{path}: unreadable: {exc}"]
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            errors.append(f"{path}:{lineno}: not UTF-8")
            continue
        if not line.strip():
            errors.append(f"{path}:{lineno}: blank line")
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"{path}:{lineno}: invalid JSON: {exc.msg}")
            continue
        count += 1
        errors.extend(lint_record(obj, where=f"{path}:{lineno}"))
    return count, errors


def main(argv: Optional[List[str]] = None) -> int:
    """CLI: lint each given JSONL file; exit 1 on any problem."""
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print("usage: python -m repro.obs.lint RECORDS.jsonl [...]",
              file=sys.stderr)
        return 2
    failed = False
    for path in paths:
        count, errors = lint_jsonl(path)
        for err in errors:
            print(err, file=sys.stderr)
        if errors:
            failed = True
        else:
            print(f"{path}: ok ({count} records)")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via the smoke tests
    sys.exit(main())
