"""Pin the shared durability idioms of :mod:`repro.util.atomicio`.

These helpers absorbed the copy-pasted atomic-write / quarantine /
torn-tail-append patterns of the result cache, the snapshot store and
the JSONL appenders — the tests here pin exactly the behaviour those
call sites relied on before the dedupe.
"""

import pytest

from repro.util import atomicio


class TestAtomicWrite:
    def test_text_round_trip(self, tmp_path):
        path = tmp_path / "deep" / "dir" / "entry.json"
        out = atomicio.atomic_write_text(path, '{"a": 1}')
        assert out == path
        assert path.read_text() == '{"a": 1}'

    def test_bytes_round_trip(self, tmp_path):
        path = tmp_path / "blob.bin"
        atomicio.atomic_write_bytes(path, b"\x00\xffACR")
        assert path.read_bytes() == b"\x00\xffACR"

    def test_overwrite_replaces_atomically(self, tmp_path):
        path = tmp_path / "entry.json"
        atomicio.atomic_write_text(path, "old")
        atomicio.atomic_write_text(path, "new")
        assert path.read_text() == "new"

    def test_no_temp_litter_on_success(self, tmp_path):
        path = tmp_path / "entry.json"
        atomicio.atomic_write_text(path, "x", prefix=".spotme.")
        assert [p.name for p in tmp_path.iterdir()] == ["entry.json"]

    def test_failure_raises_and_cleans_temp(self, tmp_path, monkeypatch):
        # A failed publish must re-raise AND leave no temp file behind —
        # the cache's original contract (partial entries are impossible).
        path = tmp_path / "entry.json"

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(atomicio.os, "replace", boom)
        with pytest.raises(OSError):
            atomicio.atomic_write_text(path, "x")
        assert list(tmp_path.iterdir()) == []

    def test_target_directory_created(self, tmp_path):
        path = tmp_path / "ab" / "key.json"
        atomicio.atomic_write_text(path, "x")
        assert path.exists()


class TestQuarantine:
    def test_removes_and_reports(self, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text("garbage")
        assert atomicio.quarantine(path) is True
        assert not path.exists()

    def test_missing_file_is_not_an_error(self, tmp_path):
        assert atomicio.quarantine(tmp_path / "never-existed") is False


class TestTailIsTorn:
    def test_missing_and_empty_files_are_clean(self, tmp_path):
        assert atomicio.tail_is_torn(tmp_path / "absent") is False
        empty = tmp_path / "empty"
        empty.write_bytes(b"")
        assert atomicio.tail_is_torn(empty) is False

    def test_clean_and_torn_tails(self, tmp_path):
        clean = tmp_path / "clean.jsonl"
        clean.write_bytes(b'{"a":1}\n{"b":2}\n')
        assert atomicio.tail_is_torn(clean) is False
        torn = tmp_path / "torn.jsonl"
        torn.write_bytes(b'{"a":1}\n{"b"')
        assert atomicio.tail_is_torn(torn) is True


class TestAppendLine:
    def test_appends_terminated_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        atomicio.append_line(path, "one")
        atomicio.append_line(path, "two")
        assert path.read_text() == "one\ntwo\n"

    def test_repairs_torn_tail_first(self, tmp_path):
        # The journal's crash model: a torn half-record costs itself,
        # never the record appended after it.
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"a":1}\n{"half')
        atomicio.append_line(path, '{"b":2}')
        lines = path.read_text().split("\n")
        assert lines[-2] == '{"b":2}'
        assert '{"a":1}' in lines

    def test_creates_parent_directory(self, tmp_path):
        path = tmp_path / "sub" / "log.jsonl"
        atomicio.append_line(path, "x")
        assert path.read_text() == "x\n"


class TestRewiredCallSites:
    """The absorbing call sites still honour their original contracts."""

    def test_journal_reexports_tail_is_torn(self):
        from repro.resilience import journal

        assert journal.tail_is_torn is atomicio.tail_is_torn

    def test_snapshot_store_save_swallows_oserror(self, tmp_path,
                                                  monkeypatch):
        # SnapshotStore.save was always best-effort: a full disk loses
        # the snapshot, never the campaign.
        from repro.sim.snapshot import SnapshotStore

        store = SnapshotStore(tmp_path)

        def boom(path, blob, prefix=""):
            raise OSError("disk full")

        monkeypatch.setattr(
            "repro.sim.snapshot.atomicio.atomic_write_bytes", boom
        )
        path = store.save("ab" * 16, b"blob")  # must not raise
        assert not path.exists()

    def test_cache_store_payload_still_raises(self, tmp_path, monkeypatch):
        # ResultCache.store_payload was never best-effort: persistence
        # failures there must surface.
        from repro.experiments.cache import ResultCache

        cache = ResultCache(tmp_path)

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(atomicio.os, "replace", boom)
        with pytest.raises(OSError):
            cache.store_payload("ab" * 32, {"x": 1}, "run")

    def test_cache_counts_quarantines(self, tmp_path):
        from repro.experiments.cache import ResultCache

        seen = []
        cache = ResultCache(tmp_path, on_quarantine=seen.append)
        key = "ab" * 32
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("not json at all")
        assert cache.load(key) is None
        assert cache.quarantined == 1
        assert seen == [path]
        # Quarantining an already-gone entry counts nothing.
        cache.quarantine(key)
        assert cache.quarantined == 1

    def test_writer_append_repairs_preexisting_tear(self, tmp_path):
        from repro.obs.telemetry.snapshots import (
            SnapshotWriter,
            read_snapshots,
        )

        path = tmp_path / "telemetry.jsonl"
        path.write_bytes(b'{"half')
        writer = SnapshotWriter(path, min_interval_s=0.0)
        writer.write({"ts_s": 0.0})
        with pytest.warns(UserWarning, match="undecodable"):
            snaps = read_snapshots(path)
        assert len(snaps) == 1 and snaps[0]["ts_s"] == 0.0
