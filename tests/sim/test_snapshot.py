"""Snapshot codec contracts: round-trip, fixed point, corruption.

Property-based where the contract is universal (any payload survives the
byte codec unchanged; any single-byte corruption or truncation is
rejected with :class:`SnapshotError`, of a real golden run's blob too),
example-based for the strict payload validation of the version-2 layout
(:class:`SimHistory` and its :class:`IntervalRecord` rows, and
:class:`GoldenRun`) and the store's quarantine semantics.  The
*semantic* fidelity of recorded state (every restored boundary equals a
full copy; forked execution bit-identical to straight-through) lives in
``tests/inject/test_interval_records.py`` and
``tests/inject/test_snapshot_fork.py``.
"""

import copy
import functools
import hashlib
import json
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.inject.harness import GoldenRun, TrialSpec, run_golden
from repro.sim.snapshot import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    SimHistory,
    SnapshotError,
    SnapshotStore,
    decode_payload,
    encode_payload,
)

# JSON-able payloads (no floats: canonical-JSON fixed-point testing
# wants exact values; snapshots themselves carry float wall times but
# those round-trip exactly through repr-based json anyway).
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**63), max_value=2**63)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)

_HEADER = len(SNAPSHOT_MAGIC) + 1 + 16


class TestByteCodec:
    @settings(max_examples=60, deadline=None)
    @given(payload=json_values)
    def test_round_trip_and_fixed_point(self, payload):
        blob = encode_payload(payload)
        assert decode_payload(blob) == payload
        # Canonical JSON: re-encoding the decoded payload reproduces
        # the blob byte for byte.
        assert encode_payload(decode_payload(blob)) == blob

    @settings(max_examples=40, deadline=None)
    @given(payload=json_values, data=st.data())
    def test_truncation_rejected(self, payload, data):
        blob = encode_payload(payload)
        cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        with pytest.raises(SnapshotError):
            decode_payload(blob[:cut])

    @settings(max_examples=60, deadline=None)
    @given(payload=json_values, data=st.data())
    def test_any_single_byte_corruption_rejected(self, payload, data):
        blob = bytearray(encode_payload(payload))
        pos = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        flip = data.draw(st.integers(min_value=1, max_value=255))
        blob[pos] ^= flip
        with pytest.raises(SnapshotError):
            decode_payload(bytes(blob))

    def test_bad_magic_and_version_messages(self):
        blob = encode_payload({"x": 1})
        with pytest.raises(SnapshotError, match="magic"):
            decode_payload(b"NOTSNAP" + blob[len(SNAPSHOT_MAGIC):])
        bumped = (
            blob[: len(SNAPSHOT_MAGIC)]
            + bytes([SNAPSHOT_VERSION + 1])
            + blob[len(SNAPSHOT_MAGIC) + 1:]
        )
        with pytest.raises(SnapshotError, match="version"):
            decode_payload(bumped)

    def test_non_bytes_rejected(self):
        with pytest.raises(SnapshotError):
            decode_payload("not bytes")


# -- version-2 payload validation -------------------------------------------
small = st.integers(min_value=0, max_value=1 << 16)
words = st.integers(min_value=0, max_value=(1 << 64) - 1)


@st.composite
def histories(draw):
    """Structurally valid histories, BER- or ACR-shaped."""
    acr = draw(st.booleans())
    n_cores = draw(st.integers(1, 3))
    cores = st.integers(0, n_cores - 1)

    def arch():
        return [[draw(small), draw(small), draw(st.lists(words, max_size=3))]
                for _ in range(n_cores)]

    n_intervals = draw(st.integers(0, 3))
    entries = draw(st.lists(
        st.tuples(cores, small, words, st.lists(words, max_size=3)).map(list),
        max_size=4,
    )) if acr and n_intervals else []
    refs = st.integers(0, len(entries) - 1) if entries else st.nothing()
    intervals = []
    for k in range(n_intervals):
        intervals.append({
            "records": draw(st.lists(
                st.tuples(words, words, cores).map(list), max_size=3)),
            "omitted": draw(st.lists(
                st.tuples(words, refs, cores, words).map(list), max_size=3,
            )) if entries else [],
            "delta": draw(st.dictionaries(words, words, max_size=4).map(
                lambda d: [list(p) for p in d.items()])),
            "whole": draw(st.booleans()),
            "checkpoint": [k + 1.0, k + 1.5, draw(small), draw(
                st.none() | st.sets(cores, min_size=1).map(sorted))],
            "arch": arch(),
            "step": 4 * (k + 1),
            "n_instructions": draw(small),
            "ecc_lookup_hits": draw(small),
            "handler": [draw(small) for _ in range(3)] if acr else None,
            "cores": [[*(draw(small) for _ in range(5)),
                       draw(st.lists(small, min_size=1, max_size=3))]
                      for _ in range(n_cores)] if acr else None,
            "generations": [[
                draw(st.lists(st.tuples(words, refs).map(list), max_size=2))
                if entries else [],
                sorted(draw(st.sets(words, max_size=2))),
            ] for _ in range(n_cores)] if acr else None,
        })
    return SimHistory.from_payload({
        "v": SNAPSHOT_VERSION, "memory_seed": draw(words),
        "initial_arch": arch(), "entries": entries, "intervals": intervals,
    })


def _payload():
    """A small valid two-core ACR history payload with a row in every
    table."""
    arch = [[0, 1, [5, 6]], [1, 0, []]]
    return {
        "v": SNAPSHOT_VERSION,
        "memory_seed": 7,
        "initial_arch": [[0, 0, [0, 0]], [0, 0, []]],
        "entries": [[0, 3, 64, [1, 2]], [1, 4, 72, []]],
        "intervals": [{
            "records": [[8, 9, 0]],
            "omitted": [[64, 0, 0, 11]],
            "delta": [[8, 10], [64, 12]],
            "whole": False,
            "checkpoint": [1.0, 1.0, 128, None],
            "arch": arch,
            "step": 4,
            "n_instructions": 40,
            "ecc_lookup_hits": 0,
            "handler": [2, 1, 3],
            "cores": [[1, 0, 2, 2, 0, [2, 0]], [1, 0, 0, 0, 0, [0, 0]]],
            "generations": [[[[64, 0]], [16]], [[[72, 1]], []]],
        }],
    }


def _rejected(doc, match=None):
    with pytest.raises(SnapshotError, match=match):
        SimHistory.from_payload(doc)


def _edited(path, value):
    """``_payload()`` with the item at ``path`` (keys and indexes)
    replaced by ``value``."""
    doc = _payload()
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


class TestSimSnapshotCodec:
    """The simulator snapshot payload: version 2's :class:`SimHistory`."""

    @settings(max_examples=50, deadline=None)
    @given(history=histories())
    def test_payload_and_bytes_round_trip(self, history):
        doc = json.loads(json.dumps(history.to_payload()))
        assert SimHistory.from_payload(doc) == history
        blob = history.to_bytes()
        assert SimHistory.from_bytes(blob) == history
        # Byte-level fixed point: serialization is deterministic.
        assert SimHistory.from_bytes(blob).to_bytes() == blob

    def test_valid_payload_accepted(self):
        history = SimHistory.from_payload(_payload())
        assert history.memory_at(1) == {8: 10, 64: 12}
        assert history.memory_at(0) == {}

    def test_fold_starts_at_the_newest_whole_image(self):
        doc = _payload()
        first = doc["intervals"][0]
        doc["intervals"] += [
            dict(first, delta=[[8, 1], [16, 2]], step=8),
            dict(first, delta=[[64, 3], [8, 4]], whole=True, step=12),
            dict(first, delta=[[16, 5]], step=16),
        ]
        history = SimHistory.from_payload(doc)
        assert list(history.memory_at(2).items()) == [
            (8, 1), (64, 12), (16, 2)]
        assert list(history.memory_at(3).items()) == [(64, 3), (8, 4)]
        assert list(history.memory_at(4).items()) == [
            (64, 3), (8, 4), (16, 5)]

    def test_missing_and_extra_fields_rejected(self):
        for doc in (_payload(), _payload()["intervals"][0]):
            missing = copy.deepcopy(doc)
            del missing["step" if "step" in doc else "entries"]
            extra = dict(copy.deepcopy(doc), surprise=1)
            for bad in (missing, extra):
                full = _payload()
                if "step" in doc:
                    full["intervals"][0] = bad
                else:
                    full = bad
                _rejected(full, "fields")

    def test_version_drift_rejected(self):
        _rejected(dict(_payload(), v=SNAPSHOT_VERSION + 1), "version")
        _rejected(dict(_payload(), v=1), "version")

    def test_mixed_acr_fields_rejected(self):
        _rejected(_edited(("intervals", 0, "cores"), None), "mixes")
        ber = copy.deepcopy(_payload()["intervals"][0])
        ber.update(omitted=[], handler=None, cores=None, generations=None)
        doc = _payload()
        doc["intervals"].append(dict(ber, step=8))
        _rejected(doc, "mixes")
        doc = _payload()
        doc["intervals"][0] = ber
        _rejected(doc, "mixes")  # entries without an ACR interval

    def test_bad_row_shapes_rejected(self):
        for path, bad in (
            (("intervals", 0, "records"), [[8, 9]]),
            (("intervals", 0, "omitted"), [[64, 0, 0]]),
            (("intervals", 0, "delta"), [[8, 10, 0]]),
            (("intervals", 0, "delta"), [8, 10]),
            (("intervals", 0, "delta"), [[8, 10], [8, 11]]),
            (("intervals", 0, "checkpoint"), [1.0, 1.0, 128]),
            (("intervals", 0, "arch", 0), [0, 1]),
            (("intervals", 0, "cores", 0), [1, 0, 2, 2, 0]),
            (("intervals", 0, "generations", 0), [[[64, 0]]]),
            (("intervals", 0, "generations", 0, 0), [[64]]),
            (("intervals", 0, "handler"), [2, 1]),
            (("entries",), [[0, 3, 64]]),
            (("initial_arch",), [0]),
            (("intervals",), {}),
        ):
            _rejected(_edited(path, bad))

    def test_bool_not_accepted_as_int(self):
        for path in (
            ("intervals", 0, "step"),
            ("intervals", 0, "records", 0, 1),
            ("intervals", 0, "omitted", 0, 1),
            ("intervals", 0, "delta", 0, 0),
            ("intervals", 0, "checkpoint", 0),
            ("intervals", 0, "arch", 0, 2, 0),
            ("intervals", 0, "cores", 0, 5, 0),
            ("intervals", 0, "generations", 0, 1, 0),
            ("entries", 0, 3, 0),
            ("memory_seed",),
        ):
            _rejected(_edited(path, True), "int|number")
        _rejected(_edited(("intervals", 0, "whole"), 1), "boolean")
        _rejected(_edited(("intervals", 0, "delta", 0, 1), "12"), "int")

    def test_bad_references_rejected(self):
        for path, bad in (
            (("intervals", 0, "omitted", 0, 1), 2),
            (("intervals", 0, "omitted", 0, 1), -1),
            (("intervals", 0, "generations", 1, 0, 0, 1), 2),
            (("intervals", 0, "records", 0, 2), 2),
            (("intervals", 0, "omitted", 0, 2), 2),
            (("intervals", 0, "checkpoint", 3), [0, 2]),
            (("entries", 1, 0), 2),
        ):
            _rejected(_edited(path, bad), "range")

    def test_counts_disagree_rejected(self):
        for path, bad in (
            (("intervals", 0, "arch"), [[0, 1, [5, 6]]]),
            (("intervals", 0, "cores"), [[1, 0, 2, 2, 0, [2, 0]]]),
            (("intervals", 0, "generations"), [[[[64, 0]], [16]]]),
            (("initial_arch",), []),
        ):
            _rejected(_edited(path, bad), "cores")
        doc = _payload()
        doc["intervals"].append(dict(doc["intervals"][0], step=4))
        _rejected(doc, "increase")


@functools.lru_cache(maxsize=None)
def _golden_blob(config):
    return run_golden(TrialSpec(workload="cg", config=config)).to_bytes()


class TestGoldenRunCodec:
    @pytest.mark.parametrize("config", ["BER", "ACR"])
    def test_round_trip_fixed_point(self, config):
        blob = _golden_blob(config)
        assert GoldenRun.from_bytes(blob).to_bytes() == blob

    @settings(max_examples=30, deadline=None)
    @given(config=st.sampled_from(["BER", "ACR"]), data=st.data())
    def test_truncation_and_corruption_rejected(self, config, data):
        blob = _golden_blob(config)
        cut = data.draw(st.integers(0, len(blob) - 1))
        with pytest.raises(SnapshotError):
            GoldenRun.from_bytes(blob[:cut])
        damaged = bytearray(blob)
        damaged[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(
            st.integers(1, 255))
        with pytest.raises(SnapshotError):
            GoldenRun.from_bytes(bytes(damaged))

    def test_v1_blob_rejected(self):
        # A version-1 blob: one full copy per boundary, framed with
        # version byte 1 and a valid checksum.
        v1 = {"v": 1, "total_steps": 9, "final_words": [[8, 1]],
              "boundaries": [{"v": 1, "memory_words": [[8, 1]]}]}
        body = zlib.compress(json.dumps(v1, sort_keys=True).encode())
        blob = (SNAPSHOT_MAGIC + bytes([1])
                + hashlib.sha256(body).digest()[:16] + body)
        with pytest.raises(SnapshotError, match="version"):
            GoldenRun.from_bytes(blob)
        # Re-framed as version 2, its payload is still refused.
        with pytest.raises(SnapshotError):
            GoldenRun.from_bytes(encode_payload(v1))

    def test_malformed_rows_rejected(self):
        good = decode_payload(_golden_blob("ACR"))
        for edit in (
            lambda d: d["final_words"].append([8]),
            lambda d: d["final_words"].append([8, "1"]),
            lambda d: d["final_words"].append([True, 1]),
            lambda d: d["final_words"].append(list(d["final_words"][0])),
            lambda d: d.update(total_steps=-1),
            lambda d: d.update(total_steps=d["history"]["intervals"][-1]
                               ["step"]),
            lambda d: d["history"]["intervals"][-1]["omitted"].append(
                [8, len(d["history"]["entries"]), 0, 1]),
        ):
            doc = copy.deepcopy(good)
            edit(doc)
            with pytest.raises(SnapshotError):
                GoldenRun.from_bytes(encode_payload(doc))


class TestSnapshotStore:
    KEY = "ab" * 32

    def test_save_load_round_trip(self, tmp_path):
        store = SnapshotStore(tmp_path)
        blob = encode_payload({"hello": 1})
        store.save(self.KEY, blob)
        assert store.load(self.KEY) == blob
        # Two-level fan-out like the result cache.
        assert store.path_for(self.KEY).parent.name == self.KEY[:2]

    def test_miss_is_none(self, tmp_path):
        assert SnapshotStore(tmp_path).load(self.KEY) is None

    def test_quarantine_turns_corruption_into_miss(self, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save(self.KEY, b"garbage")
        with pytest.raises(SnapshotError):
            decode_payload(store.load(self.KEY))
        store.quarantine(self.KEY)
        assert store.load(self.KEY) is None
        store.quarantine(self.KEY)  # idempotent

    def test_non_hex_keys_rejected(self, tmp_path):
        store = SnapshotStore(tmp_path)
        for key in ("", "../etc/passwd", "ABCD", "xyz"):
            with pytest.raises(ValueError):
                store.path_for(key)
