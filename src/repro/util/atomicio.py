"""Atomic file publication, corruption quarantine, durable line appends.

Three on-disk durability idioms grew up independently in the result
cache (:mod:`repro.experiments.cache`), the simulator snapshot store
(:mod:`repro.sim.snapshot`) and the JSONL appender (the telemetry
snapshot stream).  This module is their single
home; the semantics are exactly what the original call sites pinned:

* **atomic publication** — :func:`atomic_write_text` /
  :func:`atomic_write_bytes` write a temp file *in the destination
  directory* and ``os.replace`` it over the target, so a crashed or
  concurrent writer can never leave a partially-written file behind and
  racing writers of deterministic content are harmless (last one wins,
  byte-identically).  On any failure the temp file is removed and the
  exception re-raised;
* **quarantine** — :func:`quarantine` deletes a file a reader found
  corrupt (truncated, hand-edited, schema-drifted) so the next write
  starts clean; missing files and unlink failures are swallowed — a
  quarantine is best-effort by design, the caller already treats the
  entry as a miss;
* **torn-tail-tolerant appends** — :func:`append_line` appends one
  ``\\n``-terminated line with a single ``write()`` on an ``O_APPEND``
  descriptor (concurrent writers interleave whole records; a crash can
  tear at most the final line), repairing a torn tail first via
  :func:`tail_is_torn` so the tear costs exactly the one half-written
  record, never the one after it too.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Union

__all__ = [
    "append_line",
    "atomic_write_bytes",
    "atomic_write_text",
    "quarantine",
    "tail_is_torn",
]


def tail_is_torn(path: Union[str, Path]) -> bool:
    """Whether ``path`` ends mid-record (a crash tore the final line).

    Every committed append ends with a newline, so a file whose last
    byte is not ``\\n`` was torn; the next append must then start on a
    fresh line or it would merge into — and corrupt — the torn tail.
    Missing/unreadable files read as not-torn (there is nothing to
    repair).
    """
    try:
        with open(path, "rb") as fh:
            fh.seek(0, os.SEEK_END)
            if fh.tell() == 0:
                return False
            fh.seek(-1, os.SEEK_END)
            return fh.read(1) != b"\n"
    except OSError:
        return False


def _atomic_write(path: Path, data: bytes, prefix: str) -> Path:
    """Shared body of the two atomic writers (bytes on disk either way).

    The directory is created only when the temp file cannot be, so a
    write into an existing directory makes no ``mkdir`` call.
    """
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=prefix,
                                   suffix=".tmp")
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=prefix,
                                   suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def atomic_write_text(
    path: Union[str, Path], text: str, prefix: str = ".atomic."
) -> Path:
    """Publish ``text`` at ``path`` atomically (temp file + ``os.replace``
    in the destination directory); returns ``path``.

    ``prefix`` names the temp file (callers keep their historical
    spellings so stray temp files remain attributable).
    """
    return _atomic_write(Path(path), text.encode("utf-8"), prefix)


def atomic_write_bytes(
    path: Union[str, Path], data: bytes, prefix: str = ".atomic."
) -> Path:
    """Publish ``data`` at ``path`` atomically; returns ``path``."""
    return _atomic_write(Path(path), data, prefix)


def quarantine(path: Union[str, Path]) -> bool:
    """Remove a corrupt file so the rewrite starts clean; returns whether
    a file was actually removed (missing/busy files are not an error —
    the caller already treats the entry as a miss)."""
    try:
        os.unlink(path)
        return True
    except OSError:
        return False


def append_line(path: Union[str, Path], line: str) -> None:
    """Durably append one ``\\n``-terminated ``line`` (terminator added
    here) with a single ``O_APPEND`` write, repairing a torn tail first.

    Atomic at line level: concurrent appenders interleave whole records
    and a crash can tear at most the final line — the telemetry
    snapshot stream's durability model.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = line + "\n"
    if tail_is_torn(path):
        payload = "\n" + payload
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(payload)
        fh.flush()
