"""Snapshot stream durability: rate limit, torn tails, schema drift."""

import json
import warnings

import pytest

from repro.obs.telemetry.snapshots import (
    SNAPSHOT_KIND,
    TELEMETRY_SCHEMA_VERSION,
    SnapshotWriter,
    read_snapshots,
)


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


def _snap(n=0):
    return {"ts_s": float(n), "frames": n}


class TestSnapshotWriter:
    def test_write_stamps_version_and_kind(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        writer = SnapshotWriter(path)
        writer.write(_snap(1))
        [doc] = read_snapshots(path)
        assert doc["v"] == TELEMETRY_SCHEMA_VERSION
        assert doc["kind"] == SNAPSHOT_KIND
        assert doc["frames"] == 1
        assert writer.written == 1

    def test_maybe_write_rate_limits_on_the_injected_clock(self, tmp_path):
        clock = FakeClock()
        writer = SnapshotWriter(tmp_path / "t.jsonl", min_interval_s=0.5,
                                clock=clock)
        assert writer.maybe_write(lambda: _snap(1)) is True
        clock.t = 0.2
        assert writer.maybe_write(lambda: _snap(2)) is False
        clock.t = 0.6
        assert writer.maybe_write(lambda: _snap(3)) is True
        assert [d["frames"] for d in read_snapshots(writer.path)] == [1, 3]

    def test_maybe_write_is_lazy_when_not_due(self, tmp_path):
        clock = FakeClock()
        writer = SnapshotWriter(tmp_path / "t.jsonl", min_interval_s=10.0,
                                clock=clock)
        writer.write(_snap(0))

        def explode():
            raise AssertionError("snapshot built although not due")

        assert writer.maybe_write(explode) is False

    def test_writer_creates_parent_directories(self, tmp_path):
        writer = SnapshotWriter(tmp_path / "deep" / "down" / "t.jsonl")
        writer.write(_snap())
        assert writer.path.exists()


class TestReadSnapshots:
    def test_missing_file_is_empty(self, tmp_path):
        assert read_snapshots(tmp_path / "absent.jsonl") == []

    def test_torn_final_line_is_ignored_silently(self, tmp_path):
        writer = SnapshotWriter(tmp_path / "t.jsonl")
        writer.write(_snap(1))
        writer.write(_snap(2))
        with open(writer.path, "a", encoding="utf-8") as fh:
            fh.write('{"v": 1, "kind": "telemetry-snapshot", "fra')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            docs = read_snapshots(writer.path)
        assert [d["frames"] for d in docs] == [1, 2]

    def test_corrupt_interior_line_warns_and_skips(self, tmp_path):
        writer = SnapshotWriter(tmp_path / "t.jsonl")
        writer.write(_snap(1))
        with open(writer.path, "a", encoding="utf-8") as fh:
            fh.write("not json at all\n")
        writer.write(_snap(2))
        with pytest.warns(UserWarning, match="undecodable"):
            docs = read_snapshots(writer.path)
        assert [d["frames"] for d in docs] == [1, 2]

    def test_line_that_is_not_utf8_warns_and_skips(self, tmp_path):
        writer = SnapshotWriter(tmp_path / "t.jsonl")
        writer.write(_snap(1))
        with open(writer.path, "ab") as fh:
            fh.write(b'{"frames": "\xff"}\n')
        writer.write(_snap(2))
        with pytest.warns(UserWarning, match=r"t\.jsonl:2: undecodable"):
            docs = read_snapshots(writer.path)
        assert [d["frames"] for d in docs] == [1, 2]

    def test_schema_version_mismatch_discards_whole_stream(self, tmp_path):
        writer = SnapshotWriter(tmp_path / "t.jsonl")
        writer.write(_snap(1))
        doc = {"v": TELEMETRY_SCHEMA_VERSION + 1, "kind": SNAPSHOT_KIND}
        with open(writer.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(doc) + "\n")
        with pytest.warns(UserWarning, match="schema version"):
            assert read_snapshots(writer.path) == []

    def test_foreign_record_kind_warns_and_skips(self, tmp_path):
        writer = SnapshotWriter(tmp_path / "t.jsonl")
        doc = {"v": TELEMETRY_SCHEMA_VERSION, "kind": "something-else"}
        with open(writer.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(doc) + "\n")
        writer.write(_snap(1))
        with pytest.warns(UserWarning, match="unexpected record kind"):
            docs = read_snapshots(writer.path)
        assert [d["frames"] for d in docs] == [1]
