"""Tests for the JSONL and Chrome trace_event exporters and linters."""

import json

import pytest

from repro.obs.events import (
    AddrMapHit,
    AddrMapInsert,
    CheckpointBegin,
    CheckpointEnd,
    IntervalBoundary,
    LogWrite,
    RecoveryBegin,
    RecoveryEnd,
    SliceRecompute,
)
from repro.obs.export import (
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.lint import lint_event_dict, lint_jsonl, main as lint_main


def golden_events():
    """A tiny but representative stream: one checkpoint, one recovery."""
    return [
        LogWrite(ts_ns=10.0, core=0, address=64, line=1, size_bytes=16,
                 taken=True),
        AddrMapInsert(ts_ns=12.0, core=0, address=64, operands=2),
        AddrMapHit(ts_ns=15.0, core=1, address=128),
        LogWrite(ts_ns=15.0, core=1, address=128, line=2, size_bytes=16,
                 taken=False),
        CheckpointBegin(ts_ns=20.0, core=-1, index=0),
        IntervalBoundary(ts_ns=20.0, core=-1, index=0, instructions=40),
        CheckpointEnd(ts_ns=25.0, core=-1, index=0, duration_ns=5.0,
                      logged_records=1, omitted_records=1, logged_bytes=16,
                      flushed_bytes=128, boundary_ns=5.0,
                      cluster_flushed_bytes=(128,), cluster_barrier_ns=(1.0,),
                      addrmap_occupancy=1),
        RecoveryBegin(ts_ns=30.0, core=0, error_index=0, safe_checkpoint=0),
        SliceRecompute(ts_ns=30.0, core=0, slice_id=7, length=3, ns=4.5),
        RecoveryEnd(ts_ns=40.0, core=0, error_index=0, duration_ns=10.0,
                    waste_ns=5.0, rollback_ns=3.0, recompute_ns=2.0,
                    restored_records=1, recomputed_values=1),
    ]


class TestJsonl:
    def test_write_and_lint_clean(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        events = golden_events()
        assert write_jsonl(events, path) == len(events)
        count, errors = lint_jsonl(path)
        assert errors == []
        assert count == len(events)

    def test_lines_round_trip_as_event_dicts(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        events = golden_events()
        write_jsonl(events, path)
        docs = [json.loads(line) for line in path.read_text().splitlines()]
        assert docs == [ev.to_dict() for ev in events]

    @pytest.mark.parametrize("obj,fragment", [
        ([1, 2], "not a JSON object"),
        ({"name": "martian", "ts_ns": 0.0, "core": 0}, "unknown event name"),
        ({"name": "addrmap_hit", "ts_ns": 0.0, "core": 0}, "missing field"),
        ({"name": "addrmap_hit", "ts_ns": 0.0, "core": 0, "address": 1,
          "surprise": 2}, "unknown field"),
        ({"name": "addrmap_hit", "ts_ns": -1.0, "core": 0, "address": 1},
         "non-negative"),
        ({"name": "addrmap_hit", "ts_ns": 0.0, "core": -2, "address": 1},
         ">= -1"),
    ])
    def test_lint_event_dict_catches(self, obj, fragment):
        problems = lint_event_dict(obj)
        assert problems and any(fragment in p for p in problems)

    def test_lint_jsonl_flags_broken_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "addrmap_hit"\n\n{"name": "nope"}\n')
        count, errors = lint_jsonl(path)
        assert count == 1  # only the decodable line counts
        assert any("invalid JSON" in e for e in errors)
        assert any("blank line" in e for e in errors)
        assert any("unknown event name" in e for e in errors)

    def test_lint_jsonl_reports_a_line_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl(golden_events(), path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = b'{"name": "\xff"}\n'
        path.write_bytes(b"".join(lines))
        count, errors = lint_jsonl(path)
        assert errors == [f"{path}:2: not UTF-8"]
        assert count == len(lines) - 1

    def test_lint_main_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "good.jsonl"
        write_jsonl(golden_events(), good)
        assert lint_main([str(good)]) == 0
        assert "ok" in capsys.readouterr().out
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert lint_main([str(bad)]) == 1
        assert lint_main([]) == 2


class TestChromeTrace:
    def test_golden_document_is_valid(self):
        doc = chrome_trace(golden_events())
        assert validate_chrome_trace(doc) == []
        assert doc["displayTimeUnit"] == "ns"

    def test_span_counter_and_metadata_structure(self):
        doc = chrome_trace(golden_events(), process_name="test-proc")
        events = doc["traceEvents"]
        by_phase = {}
        for ev in events:
            by_phase.setdefault(ev["ph"], []).append(ev)
        # One checkpoint and one recovery span, opened and closed.
        assert {e["name"] for e in by_phase["B"]} == {
            "checkpoint 0", "recovery 0",
        }
        assert {e["name"] for e in by_phase["E"]} == {
            "checkpoint 0", "recovery 0",
        }
        # Counter tracks carry cumulative numeric series.
        counter_names = {e["name"] for e in by_phase["C"]}
        assert counter_names == {"log bytes", "addrmap"}
        last_log = [e for e in by_phase["C"] if e["name"] == "log bytes"][-1]
        assert last_log["args"] == {"taken": 16, "skipped": 16}
        # Slice recomputation is a complete event on the core's track.
        (x,) = by_phase["X"]
        assert x["name"] == "slice 7"
        assert x["tid"] == 1  # core 0 -> tid 1
        assert x["dur"] == pytest.approx(4.5 / 1e3)
        # Metadata names the process and every used thread track.
        meta_names = {(e["name"], e["args"]["name"]) for e in by_phase["M"]}
        assert ("process_name", "test-proc") in meta_names
        assert ("thread_name", "machine") in meta_names
        assert ("thread_name", "core 0") in meta_names

    def test_timestamps_are_microseconds(self):
        doc = chrome_trace(golden_events())
        begin = next(
            e for e in doc["traceEvents"]
            if e["ph"] == "B" and e["name"] == "checkpoint 0"
        )
        assert begin["ts"] == pytest.approx(20.0 / 1e3)

    def test_write_round_trips_through_json(self, tmp_path):
        path = write_chrome_trace(golden_events(), tmp_path / "t.json")
        doc = json.loads(path.read_text())
        assert validate_chrome_trace(doc) == []

    def test_empty_stream_is_still_valid(self):
        doc = chrome_trace([])
        assert validate_chrome_trace(doc) == []

    @pytest.mark.parametrize("doc,fragment", [
        ("nope", "traceEvents"),
        ({"traceEvents": [{"ph": "Z", "name": "x", "pid": 1, "ts": 0}]},
         "unknown phase"),
        ({"traceEvents": [{"ph": "B", "pid": 1, "ts": 0}]}, "missing name"),
        ({"traceEvents": [{"ph": "B", "name": "x", "pid": 1, "ts": -2}]},
         "non-negative"),
        ({"traceEvents": [{"ph": "X", "name": "x", "pid": 1, "ts": 0}]},
         "dur"),
        ({"traceEvents": [{"ph": "C", "name": "x", "pid": 1, "ts": 0,
                           "args": {}}]}, "numeric args"),
        ({"traceEvents": [{"ph": "E", "name": "x", "pid": 1, "tid": 0,
                           "ts": 0}]}, "without matching B"),
        ({"traceEvents": [{"ph": "B", "name": "x", "pid": 1, "tid": 0,
                           "ts": 0}]}, "unclosed span"),
    ])
    def test_validator_catches_malformed_documents(self, doc, fragment):
        errors = validate_chrome_trace(doc)
        assert errors and any(fragment in e for e in errors)
