"""Wire-protocol codec: strict decoding, hypothesis round trips, and
torn/corrupt-frame tolerance (the JSONL streams' durability model on
a socket)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.protocol import (
    CLIENT_OPS,
    PROTOCOL_VERSION,
    SERVER_OPS,
    ProtocolError,
    decode_frame,
    decode_stream,
    encode_frame,
)

# JSON-safe payload values (ints bounded to the float-exact range so a
# round trip cannot legitimately change them).
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)

_PAYLOADS = st.dictionaries(
    st.text(max_size=10).filter(lambda k: k not in ("op", "v")),
    _JSON,
    max_size=5,
)

_OPS = st.sampled_from(CLIENT_OPS + SERVER_OPS)


class TestEncode:
    def test_stamps_version_and_terminates_line(self):
        data = encode_frame({"op": "ping"})
        assert data.endswith(b"\n")
        assert json.loads(data) == {"op": "ping", "v": PROTOCOL_VERSION}

    def test_canonical_bytes_for_equal_messages(self):
        a = encode_frame({"op": "ping", "b": 1, "a": 2})
        b = encode_frame({"a": 2, "op": "ping", "b": 1})
        assert a == b

    def test_rejects_non_dict(self):
        with pytest.raises(ProtocolError, match="object"):
            encode_frame(["op", "ping"])

    def test_rejects_unknown_op(self):
        with pytest.raises(ProtocolError, match="unknown wire op"):
            encode_frame({"op": "teleport"})

    def test_rejects_missing_op(self):
        with pytest.raises(ProtocolError, match="unknown wire op"):
            encode_frame({"hello": 1})

    def test_rejects_wrong_version(self):
        with pytest.raises(ProtocolError, match="version"):
            encode_frame({"op": "ping", "v": PROTOCOL_VERSION + 1})

    def test_accepts_matching_version(self):
        data = encode_frame({"op": "ping", "v": PROTOCOL_VERSION})
        assert decode_frame(data)["op"] == "ping"

    def test_rejects_unencodable_payload(self):
        with pytest.raises(ProtocolError, match="unencodable"):
            encode_frame({"op": "ping", "blob": object()})


class TestDecode:
    def test_rejects_bad_utf8(self):
        with pytest.raises(ProtocolError, match="undecodable wire bytes"):
            decode_frame(b"\xff\xfe{}")

    def test_rejects_non_json(self):
        with pytest.raises(ProtocolError, match="undecodable"):
            decode_frame("not json at all")

    def test_rejects_non_object(self):
        with pytest.raises(ProtocolError, match="not an object"):
            decode_frame("[1,2]")

    def test_rejects_missing_version(self):
        line = json.dumps({"op": "ping"})
        with pytest.raises(ProtocolError, match="version"):
            decode_frame(line)

    def test_rejects_unknown_op(self):
        line = json.dumps({"op": "warp", "v": PROTOCOL_VERSION})
        with pytest.raises(ProtocolError, match="unknown wire op"):
            decode_frame(line)

    def test_rejects_non_string_input(self):
        with pytest.raises(ProtocolError, match="str or bytes"):
            decode_frame(42)


class TestRoundTrip:
    @given(op=_OPS, payload=_PAYLOADS)
    @settings(max_examples=200, deadline=None)
    def test_encode_decode_is_identity(self, op, payload):
        doc = dict(payload)
        doc["op"] = op
        decoded = decode_frame(encode_frame(doc))
        expected = dict(doc)
        expected["v"] = PROTOCOL_VERSION
        assert decoded == expected

    @given(op=_OPS, payload=_PAYLOADS)
    @settings(max_examples=100, deadline=None)
    def test_every_truncation_is_torn_not_error(self, op, payload):
        doc = dict(payload)
        doc["op"] = op
        data = encode_frame(doc)
        for cut in range(len(data)):  # strictly before the newline
            messages, tail, malformed = decode_stream(data[:cut])
            assert messages == []
            assert tail == data[:cut]
            assert malformed == 0
            # Buffering the rest recovers the message exactly.
            messages, tail, malformed = decode_stream(tail + data[cut:])
            assert len(messages) == 1
            assert messages[0]["op"] == op
            assert tail == b""
            assert malformed == 0

    @given(payloads=st.lists(_PAYLOADS, min_size=1, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_concatenated_frames_decode_in_order(self, payloads):
        docs = []
        for i, payload in enumerate(payloads):
            doc = dict(payload)
            doc["op"] = "frame"
            doc["seq"] = i
            docs.append(doc)
        data = b"".join(encode_frame(d) for d in docs)
        messages, tail, malformed = decode_stream(data)
        assert [m["seq"] for m in messages] == list(range(len(docs)))
        assert tail == b""
        assert malformed == 0


class TestDecodeStream:
    def test_corrupt_line_counted_not_poisoning(self):
        data = (
            encode_frame({"op": "ping"})
            + b"}}corrupt{{\n"
            + b"\xff\xfe\n"
            + encode_frame({"op": "bye"})
        )
        messages, tail, malformed = decode_stream(data)
        assert [m["op"] for m in messages] == ["ping", "bye"]
        assert tail == b""
        assert malformed == 2

    def test_blank_lines_skipped_silently(self):
        data = b"\n  \n" + encode_frame({"op": "ping"}) + b"\n"
        messages, tail, malformed = decode_stream(data)
        assert [m["op"] for m in messages] == ["ping"]
        assert tail == b""
        assert malformed == 0

    def test_torn_tail_returned_verbatim(self):
        whole = encode_frame({"op": "ping"})
        data = whole + b'{"op": "res'
        messages, tail, malformed = decode_stream(data)
        assert len(messages) == 1
        assert tail == b'{"op": "res'
        assert malformed == 0

    def test_rejects_non_bytes(self):
        with pytest.raises(ProtocolError, match="bytes"):
            decode_stream("a string")

    def test_empty_buffer(self):
        assert decode_stream(b"") == ([], b"", 0)
