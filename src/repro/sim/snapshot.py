"""CRIU-style simulator snapshots: one record per closed interval.

ACR's own premise — an interval's first-write log *is* the difference
between two checkpoints — applies to the *simulator* as much as to the
simulated machine.  A :class:`SimHistory` describes every interval
boundary of one :class:`~repro.sim.mechanism.Mechanism`-driven
execution, incrementally: one :class:`IntervalRecord` per closed
interval, built once at its boundary and shared by every later one.

Right after a boundary is established the open log, the open AddrMap
generation and the directory's log bits are empty by construction, so
boundary ``m`` is fully described by the records of intervals
``0 … m-1``:

* the memory image is the fold of their memory deltas (each holds the
  words its interval wrote, with their values at the boundary, words
  new to the image last and in the image's insertion order), from the
  newest one that holds the whole image: a record takes the whole image
  instead of its delta once the deltas since the last whole image would
  outgrow it, so a fold never reads more than twice the image;
* the retained checkpoints are their metadata, with the logs of the two
  youngest rebuilt from those intervals' copied log rows;
* each core's two committed AddrMap generations are the ones those two
  intervals committed;
* the architectural history is their per-core rows, and the counters
  (handler, operand buffers, AddrMaps, step grid) are the last one's.

Restoring boundary ``m`` therefore costs O(state at m), and recording a
boundary costs O(its own interval).

A history is **pure data** — JSON-able primitives, lists/tuples and
dicts only, no live object references.  Restoring never deep-copies
programs or compiled Slices (they are rehydrated from the deterministic
compile), a live fork and a from-bytes restore share one code path, and
serialization is a plain canonical-JSON encode.

Object identity is the one non-trivial invariant: an
:class:`~repro.ckpt.log.OmittedRecord` holds the *same object* as the
committed AddrMap entry it was justified by, and the injection harness
distinguishes shared from distinct-but-equal entries by ``id()``.  The
history therefore carries one golden-wide entry *table* (one row per
distinct entry object) and every reference is a table index, so a
restore rebuilds an isomorphic identity graph.

Framing (:func:`encode_payload` / :func:`decode_payload`) mirrors the
result cache's corruption handling: a magic tag, a format version, a
truncated SHA-256 over the compressed body, then zlib-compressed
canonical JSON.  Any mismatch raises :class:`SnapshotError`, and so does
a well-framed payload whose rows are malformed (:meth:`SimHistory.
from_payload` checks every row's width and type, every reference and
every cross-table count); :class:`SnapshotStore` quarantines (deletes)
the damaged blob exactly like :meth:`repro.experiments.cache.
ResultCache` does for results.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.util import atomicio
from repro.util.validation import field_names, require_fields

__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "IntervalRecord",
    "SimHistory",
    "SnapshotError",
    "SnapshotStore",
    "decode_payload",
    "encode_payload",
]

#: Leading tag of every serialized snapshot blob.
SNAPSHOT_MAGIC = b"ACRSNAP"

#: Bump when the payload layout changes; old blobs are then rejected
#: (and quarantined by the store) rather than misread.  Version 1 was one
#: full copy of the mechanism state per boundary.
SNAPSHOT_VERSION = 2

_CHECKSUM_BYTES = 16


class SnapshotError(ValueError):
    """A snapshot blob or payload cannot be decoded/applied safely."""


# --------------------------------------------------------------------------
# Framed byte container.
# --------------------------------------------------------------------------
def encode_payload(payload: Any) -> bytes:
    """Serialize a JSON-able payload into a framed, checksummed blob.

    Layout: ``MAGIC | version byte | sha256(body)[:16] | zlib(JSON)``.
    The JSON encoding is canonical (sorted keys, no whitespace), so equal
    payloads encode to identical bytes — snapshot round-trips are
    fixed-point testable.
    """
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    body = zlib.compress(text.encode("utf-8"))
    digest = hashlib.sha256(body).digest()[:_CHECKSUM_BYTES]
    return SNAPSHOT_MAGIC + bytes([SNAPSHOT_VERSION]) + digest + body


def decode_payload(blob: bytes) -> Any:
    """Inverse of :func:`encode_payload`; raises :class:`SnapshotError`
    on truncation, bad magic, version drift, checksum mismatch, or an
    undecodable body."""
    if not isinstance(blob, (bytes, bytearray)):
        raise SnapshotError("snapshot blob must be bytes")
    header = len(SNAPSHOT_MAGIC) + 1 + _CHECKSUM_BYTES
    if len(blob) < header:
        raise SnapshotError(
            f"snapshot blob truncated ({len(blob)} bytes < {header}-byte header)"
        )
    if bytes(blob[: len(SNAPSHOT_MAGIC)]) != SNAPSHOT_MAGIC:
        raise SnapshotError("bad snapshot magic (not an ACR snapshot)")
    version = blob[len(SNAPSHOT_MAGIC)]
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot format version {version} != {SNAPSHOT_VERSION}"
        )
    digest = bytes(blob[len(SNAPSHOT_MAGIC) + 1 : header])
    body = bytes(blob[header:])
    if hashlib.sha256(body).digest()[:_CHECKSUM_BYTES] != digest:
        raise SnapshotError("snapshot checksum mismatch (corrupt or torn blob)")
    try:
        text = zlib.decompress(body).decode("utf-8")
        return json.loads(text)
    except (zlib.error, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"undecodable snapshot body: {exc}") from None


# --------------------------------------------------------------------------
# Strict payload checks.
# --------------------------------------------------------------------------
def check_int(name: str, value: Any, lo: Optional[int] = None,
              hi: Optional[int] = None) -> int:
    """``value`` if it is an int (never a bool) in ``[lo, hi)``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SnapshotError(f"snapshot field {name!r} must be an int")
    if (lo is not None and value < lo) or (hi is not None and value >= hi):
        raise SnapshotError(f"snapshot field {name!r} out of range: {value}")
    return value


def _check_number(name: str, value: Any) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SnapshotError(f"snapshot field {name!r} must be a number")


def _check_ints(name: str, value: Any, lo: Optional[int] = None,
               hi: Optional[int] = None) -> List[int]:
    """``value`` if it is a list of ints, each in ``[lo, hi)``."""
    if not isinstance(value, list):
        raise SnapshotError(f"snapshot field {name!r} must be a list")
    for item in value:
        check_int(name, item, lo, hi)
    return value


def _check_rows(name: str, value: Any, width: int) -> List[List[Any]]:
    """``value`` if it is a list of ``width``-element lists."""
    if not isinstance(value, list):
        raise SnapshotError(f"snapshot field {name!r} must be a list")
    for row in value:
        if not isinstance(row, list) or len(row) != width:
            raise SnapshotError(
                f"snapshot field {name!r} rows must be {width}-element lists"
            )
    return value


def _check_int_rows(name: str, value: Any, width: int) -> List[List[int]]:
    """``value`` if it is a list of ``width``-element lists of ints."""
    for row in _check_rows(name, value, width):
        for item in row:
            check_int(name, item)
    return value


def check_words(name: str, value: Any) -> Dict[int, int]:
    """``[address, value]`` rows as an insertion-ordered dict; an address
    may appear once."""
    words = dict(_check_int_rows(name, value, 2))
    if len(words) != len(value):
        raise SnapshotError(f"snapshot field {name!r} repeats an address")
    return words


def _check_arch(name: str, value: Any, n_cores: int) -> None:
    """Per-core ``[kernel, iteration, [regs]]`` rows, one per core."""
    rows = _check_rows(name, value, 3)
    if len(rows) != n_cores:
        raise SnapshotError(
            f"snapshot field {name!r} covers {len(rows)} cores, not {n_cores}"
        )
    for kernel, iteration, regs in rows:
        check_int(name, kernel, 0)
        check_int(name, iteration, 0)
        _check_ints(name, regs)


# --------------------------------------------------------------------------
# The records.
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class IntervalRecord:
    """What one closed interval changed, recorded once at its boundary.

    Rows are tuples when freshly recorded and lists once decoded; every
    reader only iterates them.  Entry references are indexes into
    :attr:`SimHistory.entries`.
    """

    #: The closed log's records: ``(address, old value, core)``.
    records: Sequence[Sequence[int]]
    #: Its omissions: ``(address, entry, core, ground-truth old value)``.
    omitted: Sequence[Sequence[int]]
    #: address → value at the boundary, of every word the interval
    #: wrote; words new to the image come last, in insertion order.
    #: With :attr:`whole`, every word of the image, in insertion order.
    #: (A dict, so a fold is one ``dict.update`` per record.)
    delta: Dict[int, int]
    #: Whether :attr:`delta` is the whole image (a fold starts here).
    whole: bool
    #: The new checkpoint: ``(useful_ns, wall_ns, arch_bytes,
    #: participants)`` (participants sorted, or ``None`` for global).
    checkpoint: Sequence[Any]
    #: Live per-core architectural state: ``(kernel, iteration, regs)``.
    arch: Sequence[Sequence[Any]]
    #: Harness step count at the boundary.
    step: int
    #: Cumulative dynamic instructions executed.
    n_instructions: int
    #: ECC-at-lookup hits observed so far.
    ecc_lookup_hits: int
    #: Handler counters ``(assoc_executed, omissions, omission_lookups)``
    #: (``None`` under BER, as are the two fields below).
    handler: Optional[Sequence[int]]
    #: Per core: ``(addrmap records, addrmap rejections, buffer words,
    #: buffer peak words, buffer rejections, generation word ledger)``.
    cores: Optional[Sequence[Sequence[Any]]]
    #: Per core, the generation committed at this boundary:
    #: ``(((address, entry), ...) in insertion order, sorted tombstones)``.
    generations: Optional[Sequence[Sequence[Any]]]

    def to_payload(self) -> Dict[str, Any]:
        doc = {name: getattr(self, name) for name in field_names(type(self))}
        doc["delta"] = list(self.delta.items())
        return doc

    @classmethod
    def from_payload(cls, doc: Any, n_cores: int,
                     n_entries: int) -> "IntervalRecord":
        """Decode one record of a history with ``n_cores`` cores and
        ``n_entries`` table rows; raises :class:`SnapshotError`."""
        require_fields(doc, cls, "interval record", error=SnapshotError)
        _check_int_rows("records", doc["records"], 3)
        for _, _, core in doc["records"]:
            check_int("records", core, 0, n_cores)
        for _, entry, core, _ in _check_int_rows("omitted", doc["omitted"], 4):
            check_int("omitted", entry, 0, n_entries)
            check_int("omitted", core, 0, n_cores)
        doc = dict(doc, delta=check_words("delta", doc["delta"]))
        if not isinstance(doc["whole"], bool):
            raise SnapshotError("snapshot field 'whole' must be a boolean")
        useful, wall, arch_bytes, participants = _check_rows(
            "checkpoint", [doc["checkpoint"]], 4)[0]
        _check_number("checkpoint", useful)
        _check_number("checkpoint", wall)
        check_int("checkpoint", arch_bytes, 0)
        if participants is not None:
            _check_ints("checkpoint", participants, 0, n_cores)
        _check_arch("arch", doc["arch"], n_cores)
        for name in ("step", "n_instructions", "ecc_lookup_hits"):
            check_int(name, doc[name], 0)
        acr = [doc[name] is not None
               for name in ("handler", "cores", "generations")]
        if any(acr) and not all(acr):
            raise SnapshotError(
                "interval record mixes ACR handler state with BER nulls"
            )
        if all(acr):
            for value in _check_int_rows("handler", [doc["handler"]], 3)[0]:
                check_int("handler", value, 0)
            for name in ("cores", "generations"):
                if len(_check_rows(name, doc[name], 6 if name == "cores"
                                  else 2)) != n_cores:
                    raise SnapshotError(
                        f"interval record {name!r} covers "
                        f"{len(doc[name])} cores, not {n_cores}"
                    )
            for row in doc["cores"]:
                for value in row[:5]:
                    check_int("cores", value, 0)
                _check_ints("cores", row[5])
            for entries, tombstones in doc["generations"]:
                for _, entry in _check_int_rows("generations", entries, 2):
                    check_int("generations", entry, 0, n_entries)
                _check_ints("generations", tombstones)
        return cls(**doc)


@dataclass(frozen=True)
class SimHistory:
    """Every interval boundary of one execution, as interval records.

    Boundary ``m`` (``0 <= m <= len(intervals)``) is the state right
    after the ``m``-th checkpoint was established; boundary 0 is the
    initial state.
    """

    #: Seed of the memory image the deltas were written over.
    memory_seed: int
    #: Architectural state at program start: ``(kernel, iteration, regs)``
    #: per core (rollback to checkpoint -1).
    initial_arch: Sequence[Sequence[Any]]
    #: Entry table: ``(core, slice site, address, operands)`` — one row
    #: per *distinct* AddrMap entry object the records reference.
    entries: Sequence[Sequence[Any]]
    #: One record per closed interval, oldest first.
    intervals: Sequence[IntervalRecord]

    def memory_at(self, boundary: int) -> Dict[int, int]:
        """The memory image's written words at ``boundary`` (insertion
        ordered): the fold of the first ``boundary`` deltas, from the
        newest whole image among them."""
        intervals = self.intervals[:boundary]
        start = len(intervals)
        while start and not intervals[start - 1].whole:
            start -= 1
        words: Dict[int, int] = {}
        for record in intervals[max(start - 1, 0):]:
            words.update(record.delta)
        return words

    # -- payload codec -------------------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        """JSON-able dict, version-stamped (strict inverse:
        :meth:`from_payload`)."""
        return {
            "v": SNAPSHOT_VERSION,
            "memory_seed": self.memory_seed,
            "initial_arch": self.initial_arch,
            "entries": self.entries,
            "intervals": [r.to_payload() for r in self.intervals],
        }

    @classmethod
    def from_payload(cls, doc: Any) -> "SimHistory":
        """Decode a payload dict; raises :class:`SnapshotError` on any
        structural drift, malformed row or out-of-range reference."""
        require_fields(doc, cls, "snapshot", extra=("v",), error=SnapshotError)
        if doc["v"] != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"snapshot payload version {doc['v']!r} != {SNAPSHOT_VERSION}"
            )
        check_int("memory_seed", doc["memory_seed"], 0)
        initial = _check_rows("initial_arch", doc["initial_arch"], 3)
        n_cores = len(initial)
        if not n_cores:
            raise SnapshotError("snapshot covers no cores")
        _check_arch("initial_arch", initial, n_cores)
        entries = _check_rows("entries", doc["entries"], 4)
        for core, site, address, operands in entries:
            check_int("entries", core, 0, n_cores)
            check_int("entries", site)
            check_int("entries", address)
            _check_ints("entries", operands)
        if not isinstance(doc["intervals"], list):
            raise SnapshotError("snapshot field 'intervals' must be a list")
        intervals = [
            IntervalRecord.from_payload(r, n_cores, len(entries))
            for r in doc["intervals"]
        ]
        acr = {r.handler is not None for r in intervals}
        if len(acr) > 1 or (entries and acr != {True}):
            raise SnapshotError(
                "snapshot mixes ACR handler state with BER intervals"
            )
        for before, after in zip(intervals, intervals[1:]):
            if after.step <= before.step:
                raise SnapshotError("snapshot interval steps must increase")
        return cls(doc["memory_seed"], initial, entries, intervals)

    # -- byte codec ----------------------------------------------------------
    def to_bytes(self) -> bytes:
        return encode_payload(self.to_payload())

    @classmethod
    def from_bytes(cls, blob: bytes) -> "SimHistory":
        return cls.from_payload(decode_payload(blob))


# --------------------------------------------------------------------------
# On-disk store (mirrors the result cache's layout and quarantine).
# --------------------------------------------------------------------------
class SnapshotStore:
    """Content-addressed snapshot blobs under one root directory.

    Keys are hex digests (the harness derives them from the golden-run
    recipe).  Writes are atomic (temp file + ``os.replace``), so
    concurrent campaign workers racing on one key are harmless — the
    content is deterministic and idempotent.  A blob that fails to
    decode is *quarantined* (deleted) by the caller via
    :meth:`quarantine`, turning corruption into a recompute, never a
    crash — the same contract the result cache gives results.
    """

    SUFFIX = ".snap"

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise ValueError(f"snapshot key must be lowercase hex, got {key!r}")
        return self.root / key[:2] / f"{key}{self.SUFFIX}"

    def load(self, key: str) -> Optional[bytes]:
        """The stored blob, or ``None`` on a miss (including unreadable
        files — the store is best-effort, like the result cache)."""
        try:
            return self.path_for(key).read_bytes()
        except OSError:
            return None

    def save(self, key: str, blob: bytes) -> Path:
        """Atomically publish ``blob`` under ``key``.

        Best-effort: an ``OSError`` (full or read-only disk) is swallowed
        — a snapshot that fails to persist simply costs a future golden
        re-simulation, never a failed campaign.
        """
        path = self.path_for(key)
        try:
            atomicio.atomic_write_bytes(path, blob, prefix=path.name)
        except OSError:
            pass
        return path

    def quarantine(self, key: str) -> None:
        """Remove a blob that failed to decode (treated as a miss)."""
        atomicio.quarantine(self.path_for(key))
