"""Tests for the tracer protocol and the typed event vocabulary."""

import dataclasses

import pytest

from repro.obs.events import (
    EVENT_TYPES,
    AddrMapEvict,
    CheckpointBegin,
    LogWrite,
    SliceRecompute,
    TraceEvent,
)
from repro.obs.tracer import NullTracer, RecordingTracer, Tracer


def make_event(ts=1.5, core=0):
    return LogWrite(ts_ns=ts, core=core, address=64, line=1,
                    size_bytes=16, taken=True)


class TestEvents:
    def test_registry_is_consistent(self):
        assert len(EVENT_TYPES) == 18
        for name, cls in EVENT_TYPES.items():
            assert cls.name == name
            assert issubclass(cls, TraceEvent)

    def test_wire_names_are_unique_and_stable(self):
        assert "log_write" in EVENT_TYPES
        assert EVENT_TYPES["log_write"] is LogWrite
        assert EVENT_TYPES["checkpoint_begin"] is CheckpointBegin
        assert EVENT_TYPES["slice_recompute"] is SliceRecompute

    def test_to_dict_includes_name_and_all_fields(self):
        ev = make_event()
        doc = ev.to_dict()
        assert doc["name"] == "log_write"
        for f in dataclasses.fields(ev):
            assert doc[f.name] == getattr(ev, f.name)

    def test_events_are_frozen(self):
        ev = make_event()
        with pytest.raises(dataclasses.FrozenInstanceError):
            ev.ts_ns = 0.0

    def test_machine_wide_core_id(self):
        ev = CheckpointBegin(ts_ns=0.0, core=-1, index=3)
        assert ev.to_dict() == {
            "name": "checkpoint_begin", "ts_ns": 0.0, "core": -1, "index": 3,
        }

    def test_evict_reasons_documented(self):
        for reason in ("invalidated", "rejected", "replaced"):
            ev = AddrMapEvict(ts_ns=0.0, core=0, address=8, reason=reason)
            assert ev.to_dict()["reason"] == reason


class TestNullTracer:
    def test_disabled_and_silent(self):
        t = NullTracer()
        assert t.enabled is False
        t.emit(make_event())  # must not raise, must not store anything
        assert isinstance(t, Tracer)


class TestRecordingTracer:
    def test_captures_in_order(self):
        t = RecordingTracer()
        assert t.enabled is True
        events = [make_event(ts=float(i)) for i in range(5)]
        for ev in events:
            t.emit(ev)
        assert t.events == events
        assert t.captured == 5
        assert t.dropped == 0

    def test_capacity_keeps_earliest_and_counts_drops(self):
        t = RecordingTracer(capacity=3)
        for i in range(10):
            t.emit(make_event(ts=float(i)))
        assert t.captured == 3
        assert t.dropped == 7
        assert [ev.ts_ns for ev in t.events] == [0.0, 1.0, 2.0]

    def test_zero_capacity_drops_everything(self):
        t = RecordingTracer(capacity=0)
        t.emit(make_event())
        assert t.captured == 0
        assert t.dropped == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            RecordingTracer(capacity=-1)

    def test_clear_resets_buffer_and_counter(self):
        t = RecordingTracer(capacity=1)
        t.emit(make_event())
        t.emit(make_event())
        t.clear()
        assert t.captured == 0
        assert t.dropped == 0
        t.emit(make_event())
        assert t.captured == 1
