"""The campaign service's wire protocol: versioned line-delimited JSON.

One message is one ``\\n``-terminated canonical-JSON object carrying a
version stamp (``"v"``) and an operation (``"op"``).  The framing is the
JSONL streams' durability model (:mod:`repro.util.atomicio`) applied to
a socket: whole-line writes, so a
reader can always resynchronise on the next newline, and a connection
torn mid-message costs exactly the unterminated tail
(:func:`decode_stream` reports it as ``torn`` rather than raising —
``tail_is_torn`` for byte streams).

Client → daemon operations: ``submit``, ``ping``, ``shutdown``,
``watch``.  Daemon → client: ``accepted``, ``frame``, ``result``,
``status``, ``error``, ``bye``.  Decoding is strict — unknown operation,
missing/mismatched version, or a non-object line raises
:class:`ProtocolError` (the receiving side counts and drops it); the
codec itself round-trips any JSON-safe payload bit-exactly (a hypothesis
suite pins this).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

__all__ = [
    "PROTOCOL_VERSION",
    "CLIENT_OPS",
    "SERVER_OPS",
    "ProtocolError",
    "encode_frame",
    "decode_frame",
    "decode_stream",
]

#: Bump when any message layout changes; mismatched peers then fail
#: loudly at the first message instead of misreading each other.
PROTOCOL_VERSION = 1

#: Operations a client may send.
CLIENT_OPS = ("submit", "ping", "shutdown", "watch")

#: Operations the daemon may send.
SERVER_OPS = ("accepted", "frame", "result", "status", "error", "bye")

_ALL_OPS = frozenset(CLIENT_OPS) | frozenset(SERVER_OPS)


class ProtocolError(ValueError):
    """A wire message violates the protocol (version, shape, or op)."""


def encode_frame(doc: Dict[str, Any]) -> bytes:
    """One message as wire bytes: version-stamped canonical JSON plus the
    line terminator.

    ``doc`` must carry a known ``"op"``; the version stamp is added here
    (an existing ``"v"`` must agree).  Canonical encoding (sorted keys,
    no whitespace) keeps equal messages byte-equal — the round-trip
    tests' fixed point.
    """
    if not isinstance(doc, dict):
        raise ProtocolError("wire message must be an object")
    op = doc.get("op")
    if op not in _ALL_OPS:
        raise ProtocolError(f"unknown wire op {op!r}")
    if "v" in doc and doc["v"] != PROTOCOL_VERSION:
        raise ProtocolError(
            f"wire version {doc['v']!r} != {PROTOCOL_VERSION}"
        )
    out = dict(doc)
    out["v"] = PROTOCOL_VERSION
    try:
        line = json.dumps(out, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"unencodable wire message: {exc}") from None
    if "\n" in line:
        # json.dumps never emits raw newlines, but the framing invariant
        # is load-bearing enough to assert.
        raise ProtocolError("encoded message contains a newline")
    return line.encode("utf-8") + b"\n"


def decode_frame(line: Any) -> Dict[str, Any]:
    """One wire line back into its message dict (strict inverse of
    :func:`encode_frame`); raises :class:`ProtocolError` on any drift."""
    if isinstance(line, (bytes, bytearray)):
        try:
            line = bytes(line).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"undecodable wire bytes: {exc}") from None
    if not isinstance(line, str):
        raise ProtocolError("wire line must be str or bytes")
    try:
        doc = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"undecodable wire message: {exc}") from None
    if not isinstance(doc, dict):
        raise ProtocolError("wire message is not an object")
    if doc.get("v") != PROTOCOL_VERSION:
        raise ProtocolError(
            f"wire version {doc.get('v')!r} != {PROTOCOL_VERSION}"
        )
    if doc.get("op") not in _ALL_OPS:
        raise ProtocolError(f"unknown wire op {doc.get('op')!r}")
    return doc


def decode_stream(
    data: bytes,
) -> Tuple[List[Dict[str, Any]], bytes, int]:
    """Split a byte buffer into complete messages.

    Returns ``(messages, tail, malformed)``: every decodable complete
    line in order, the unterminated tail bytes (a torn frame — the
    caller keeps them and prepends the next read; empty when the buffer
    ended on a line boundary), and how many complete-but-undecodable
    lines were dropped.  Mirrors the snapshot reader's tolerance: a torn
    tail is never an error and a corrupt line never poisons the lines
    after it.
    """
    if not isinstance(data, (bytes, bytearray)):
        raise ProtocolError("wire buffer must be bytes")
    chunks = bytes(data).split(b"\n")
    tail = chunks[-1]
    messages: List[Dict[str, Any]] = []
    malformed = 0
    for chunk in chunks[:-1]:
        if not chunk.strip():
            continue
        try:
            messages.append(decode_frame(chunk))
        except ProtocolError:
            malformed += 1
    return messages, tail, malformed
