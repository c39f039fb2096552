"""CRIU-style simulator snapshots: capture, serialize, restore, fork.

ACR's own premise — recovery state is a consistent snapshot plus a small
tail of work — applies to the *simulator* as much as to the simulated
machine.  A :class:`SimSnapshot` captures the complete functional state
of a :class:`~repro.sim.mechanism.Mechanism`-driven execution at an
interval boundary:

* the memory image (written words, insertion-ordered),
* the checkpoint store (retained checkpoints + the open interval log),
* per-core AddrMap generations and operand buffers (ACR only),
* per-core architectural + interpreter state, the initial state, and
  the per-checkpoint architectural history,
* directory log bits,
* RNG stream positions (label → :meth:`DeterministicRng.getstate`),
* observation counters (steps, instructions, ECC lookup hits).

A snapshot is **pure data** — JSON-able primitives, lists and dicts
only, no live object references.  That is what "deep-copy-free" buys:
restoring never deep-copies programs or compiled Slices (they are
rehydrated from the deterministic compile), a live fork and a
from-bytes restore share one code path, and serialization is a plain
canonical-JSON encode.

Object identity is the one non-trivial invariant: an
:class:`~repro.ckpt.log.OmittedRecord` holds the *same object* as the
committed AddrMap entry it was justified by, and the injection harness
distinguishes shared from distinct-but-equal entries by ``id()``.  The
payload therefore carries an entry *table* (one row per distinct entry
object) and every reference is a table index, so restoring rebuilds an
isomorphic identity graph.

Framing (:func:`encode_payload` / :func:`decode_payload`) mirrors the
result cache's corruption handling: a magic tag, a format version, a
truncated SHA-256 over the compressed body, then zlib-compressed
canonical JSON.  Any mismatch raises :class:`SnapshotError`, and
:class:`SnapshotStore` quarantines (deletes) the damaged blob exactly
like :meth:`repro.experiments.cache.ResultCache` does for results.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.util import atomicio
from repro.util.validation import require_fields

__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "SimSnapshot",
    "SnapshotError",
    "SnapshotStore",
    "decode_payload",
    "encode_payload",
]

#: Leading tag of every serialized snapshot blob.
SNAPSHOT_MAGIC = b"ACRSNAP"

#: Bump when the payload layout changes; old blobs are then rejected
#: (and quarantined by the store) rather than misread.
SNAPSHOT_VERSION = 1

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


def _check_pairs(name: str, value: Any, width: int) -> List[List[Any]]:
    """Validate a list of fixed-width rows (the payload's list shapes)."""
    if not isinstance(value, list):
        raise SnapshotError(f"snapshot field {name!r} must be a list")
    for row in value:
        if not isinstance(row, list) or len(row) != width:
            raise SnapshotError(
                f"snapshot field {name!r} rows must be {width}-element lists"
            )
    return value


# --------------------------------------------------------------------------
# The snapshot value.
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class SimSnapshot:
    """Complete functional simulator state at one interval boundary.

    Every field is JSON-able pure data; see the module doc for the
    encoding conventions.  Dict-shaped live state (memory words, AddrMap
    generation entries) is stored as *ordered pair lists*, not JSON
    objects — insertion order is part of the captured state (the
    injection harness indexes candidate lists built by dict iteration).
    """

    #: Seed of the memory image the words below were written over.
    memory_seed: int
    #: ``[address, value]`` pairs of every written word, insertion order.
    memory_words: List[List[int]]
    #: Harness step count at capture (a multiple of ``steps_per_interval``).
    step: int
    #: Cumulative dynamic instructions executed.
    n_instructions: int
    #: ECC-at-lookup hits observed so far.
    ecc_lookup_hits: int
    #: Sorted word addresses whose directory log bit is set.
    directory_log_bits: List[int]
    #: Entry table: ``[core, slice site, address, [operands...]]`` — one
    #: row per *distinct* AddrMap entry object; all entry references
    #: below are indexes into this table (identity-graph preserving).
    entries: List[List[Any]]
    #: The open interval log: ``{"interval", "records", "omitted"}``.
    open_log: Dict[str, Any]
    #: Retained checkpoints, oldest first (pruned logs stay pruned).
    checkpoints: List[Dict[str, Any]]
    #: Per-core AddrMap state (``None`` under BER — no ACR handler).
    addrmaps: Optional[List[Dict[str, Any]]]
    #: Per-core operand-buffer occupancy (``None`` under BER).
    operand_buffers: Optional[List[Dict[str, int]]]
    #: Per-core generation word ledgers (``None`` under BER).
    gen_words: Optional[List[List[int]]]
    #: Handler counters (``None`` under BER).
    handler_counters: Optional[Dict[str, int]]
    #: Live per-core architectural state: ``[kernel, iteration, [regs]]``.
    arch: List[List[Any]]
    #: Architectural state at program start (rollback to checkpoint -1).
    initial_arch: List[List[Any]]
    #: Per-checkpoint architectural snapshots (``arch`` rows per entry).
    arch_history: List[List[List[Any]]]
    #: RNG stream positions: label → ``DeterministicRng.getstate()``.
    rng_states: Dict[str, Any]

    # -- payload codec -------------------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        """JSON-able dict, version-stamped (strict inverse:
        :meth:`from_payload`)."""
        doc: Dict[str, Any] = {"v": SNAPSHOT_VERSION}
        for f in fields(self):
            doc[f.name] = getattr(self, f.name)
        return doc

    @classmethod
    def from_payload(cls, doc: Any) -> "SimSnapshot":
        """Decode a payload dict; raises :class:`SnapshotError` on any
        structural drift."""
        require_fields(doc, cls, "snapshot", extra=("v",), error=SnapshotError)
        if doc["v"] != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"snapshot payload version {doc['v']!r} != {SNAPSHOT_VERSION}"
            )
        for name in ("memory_seed", "step", "n_instructions",
                     "ecc_lookup_hits"):
            value = doc[name]
            if isinstance(value, bool) or not isinstance(value, int):
                raise SnapshotError(f"snapshot field {name!r} must be an int")
        _check_pairs("memory_words", doc["memory_words"], 2)
        _check_pairs("entries", doc["entries"], 4)
        if not isinstance(doc["directory_log_bits"], list):
            raise SnapshotError("directory_log_bits must be a list")
        if not isinstance(doc["open_log"], dict):
            raise SnapshotError("open_log must be an object")
        if not isinstance(doc["checkpoints"], list):
            raise SnapshotError("checkpoints must be a list")
        for name in ("arch", "initial_arch"):
            _check_pairs(name, doc[name], 3)
        if not isinstance(doc["arch_history"], list):
            raise SnapshotError("arch_history must be a list")
        if not isinstance(doc["rng_states"], dict):
            raise SnapshotError("rng_states must be an object")
        acr_fields = ("addrmaps", "operand_buffers", "gen_words",
                      "handler_counters")
        present = [doc[name] is not None for name in acr_fields]
        if any(present) and not all(present):
            raise SnapshotError(
                "snapshot mixes ACR handler state with BER null fields"
            )
        kwargs = {f.name: doc[f.name] for f in fields(cls)}
        return cls(**kwargs)

    # -- byte codec ----------------------------------------------------------
    def to_bytes(self) -> bytes:
        return encode_payload(self.to_payload())

    @classmethod
    def from_bytes(cls, blob: bytes) -> "SimSnapshot":
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
