"""Write-ahead completion journal: the harness's checkpoint log.

One JSONL file beside the result cache records every task the engine
*finished* (simulated, stored, and memoised) — key, kind, label,
attempt count, seconds.  On resume, already-journaled tasks are counted
and served from the cache instead of re-executing, so an interrupted
figure regeneration or injection campaign picks up exactly where it
stopped and its final report is bit-identical to an undisturbed run
(the journal never feeds result *content*, only completion facts).

Durability model (mirrors :mod:`repro.experiments.cache`'s reader-side
tolerance):

* appends are single ``write()`` calls of one ``\\n``-terminated line on
  an ``O_APPEND`` descriptor — concurrent writers interleave whole
  records, and a crash can tear at most the final line;
* a torn/undecodable **final** line is silently ignored (the record's
  result is re-derivable from the cache);
* an undecodable line elsewhere is skipped with a warning;
* a schema-version mismatch anywhere discards the whole journal with a
  warning — resume then degrades to a cold start, never a crash.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.util.atomicio import append_line, tail_is_torn
from repro.util.validation import require_fields

__all__ = [
    "JOURNAL_SCHEMA_VERSION",
    "JournalRecord",
    "CompletionJournal",
    "tail_is_torn",  # canonical home: repro.util.atomicio (re-exported)
]

#: Bump when the record layout changes; old journals are then ignored
#: (with a warning) rather than misread.
JOURNAL_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class JournalRecord:
    """One completed task: identity plus how much it cost to finish."""

    #: Content-addressed cache key of the task (the resume identity).
    key: str
    #: Payload kind (``run`` or ``inject-trial`` — the cache's ``kind``).
    kind: str
    #: Human-readable task name, e.g. ``bt/ReCkpt_E`` or ``bt/inject:ACR``.
    label: str
    #: Executions the task consumed (1 on a clean first try).
    attempts: int
    #: Wall seconds of the successful attempt.
    seconds: float

    def __post_init__(self) -> None:
        if not self.key:
            raise ValueError("journal record needs a non-empty key")
        if self.attempts < 1:
            raise ValueError(
                f"journal record attempts must be >= 1, got {self.attempts}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe mapping, version-stamped (strict inverse:
        :meth:`from_dict`)."""
        doc: Dict[str, Any] = {"v": JOURNAL_SCHEMA_VERSION}
        for f in fields(self):
            doc[f.name] = getattr(self, f.name)
        return doc

    @classmethod
    def from_dict(cls, doc: Any) -> "JournalRecord":
        """Decode one record; raises ``ValueError`` on any drift except
        the version stamp (checked by the caller, which owns the
        whole-journal mismatch policy)."""
        require_fields(doc, cls, "journal record", extra=("v",))
        if not isinstance(doc["key"], str) or not isinstance(doc["kind"], str):
            raise ValueError("journal record key/kind must be strings")
        if not isinstance(doc["label"], str):
            raise ValueError("journal record label must be a string")
        attempts = doc["attempts"]
        if isinstance(attempts, bool) or not isinstance(attempts, int):
            raise ValueError("journal record attempts must be an int")
        seconds = doc["seconds"]
        if isinstance(seconds, bool) or not isinstance(seconds, (int, float)):
            raise ValueError("journal record seconds must be a number")
        return cls(
            key=doc["key"],
            kind=doc["kind"],
            label=doc["label"],
            attempts=attempts,
            seconds=float(seconds),
        )


class CompletionJournal:
    """Append-only JSONL journal of completed tasks.

    Reads are cached: :meth:`load` re-parses the file only when its
    (mtime, size) stamp changed since the cached parse — so the
    per-completion ``key in journal`` probes of a long campaign stay
    O(1) instead of re-reading an ever-growing file.  Local appends
    invalidate the cache directly; concurrent writers are caught by the
    stamp check.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._cache: Optional[Dict[str, JournalRecord]] = None
        self._cache_stamp: Optional[Tuple[int, int]] = None
        #: Full-file parses performed (the caching contract's test hook).
        self._parses = 0

    # ------------------------------------------------------------------ write --
    def append(self, record: JournalRecord) -> None:
        """Durably append one completion record (atomic at line level:
        a single ``O_APPEND`` write of one terminated line).

        A torn tail left by a crash mid-append is repaired first — the
        new record starts on a fresh line, so the tear costs exactly the
        one half-written record, never the one after it too.
        """
        append_line(self.path, json.dumps(record.to_dict(), sort_keys=True))
        self._cache = None
        self._cache_stamp = None

    # ------------------------------------------------------------------- read --
    def _stamp(self) -> Optional[Tuple[int, int]]:
        """(mtime_ns, size) of the journal file; ``None`` when absent."""
        try:
            st = self.path.stat()
        except OSError:
            return None
        return (st.st_mtime_ns, st.st_size)

    def load(self) -> Dict[str, JournalRecord]:
        """Every journaled completion, keyed by cache key (last record
        wins for a re-journaled key).

        Tolerant by construction: no file ⇒ empty; torn final line ⇒
        ignored; corrupt interior line ⇒ skipped with a warning; any
        record from a different schema version ⇒ the whole journal is
        discarded with a warning (resume degrades to a cold start).
        Returns a fresh dict each call (the cache is never aliased out).
        """
        stamp = self._stamp()
        if (
            self._cache is not None
            and stamp is not None
            and stamp == self._cache_stamp
        ):
            return dict(self._cache)
        records = self._parse()
        # Cache only a stable parse: an unchanged stamp across the read
        # means no concurrent writer landed mid-parse.
        if stamp is not None and self._stamp() == stamp:
            self._cache = records
            self._cache_stamp = stamp
        else:
            self._cache = None
            self._cache_stamp = None
        return dict(records)

    def _parse(self) -> Dict[str, JournalRecord]:
        """One full-file parse (see :meth:`load` for the tolerances)."""
        self._parses += 1
        try:
            raw = self.path.read_text(encoding="utf-8")
        except OSError:
            return {}
        # Every committed record ends with a newline, so the final
        # ``split`` slot is "" on a clean journal and a torn half-record
        # after a crash mid-append; either way it is not a record.  The
        # torn task simply re-runs (or cache-hits) on resume.
        body = raw.split("\n")[:-1]
        records: Dict[str, JournalRecord] = {}
        for lineno, line in enumerate(body, start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
                if not isinstance(doc, dict):
                    raise ValueError("journal line is not an object")
                version = doc.get("v")
            except ValueError:
                warnings.warn(
                    f"{self.path}:{lineno}: undecodable journal record "
                    f"skipped",
                    stacklevel=2,
                )
                continue
            if version != JOURNAL_SCHEMA_VERSION:
                warnings.warn(
                    f"{self.path}: journal schema version {version!r} != "
                    f"{JOURNAL_SCHEMA_VERSION}; ignoring the journal "
                    f"(resume starts cold)",
                    stacklevel=2,
                )
                return {}
            try:
                record = JournalRecord.from_dict(doc)
            except ValueError as exc:
                warnings.warn(
                    f"{self.path}:{lineno}: bad journal record skipped "
                    f"({exc})",
                    stacklevel=2,
                )
                continue
            records[record.key] = record
        return records

    def __len__(self) -> int:
        return len(self.load())

    def __contains__(self, key: str) -> bool:
        return key in self.load()
