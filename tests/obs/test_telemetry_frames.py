"""Telemetry wire contracts: the strict event decoder and ambient emission.

A telemetry *frame* is one task-tagged event on the wire
(``{"task": label, "event": event.to_dict()}``).  Every pipe and socket
receiver decodes the event through :func:`event_from_dict`, and the
JSONL linter judges events with the same decoder, so the two can never
disagree: these tests round-trip every registered event type (sampled,
and generated by hypothesis) and corrupt each field in turn.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.events import (
    EVENT_TYPES,
    MACHINE,
    AddrMapEvict,
    AddrMapHit,
    AddrMapInsert,
    CampaignResumed,
    CheckpointBegin,
    CheckpointEnd,
    FaultInjected,
    IntervalBoundary,
    LogWrite,
    PhaseChanged,
    PoolDegraded,
    RecoveryBegin,
    RecoveryDiverged,
    RecoveryEnd,
    RecoveryVerified,
    SliceRecompute,
    TaskFinished,
    TaskStarted,
    WorkerDied,
    event_from_dict,
)
from repro.obs.lint import lint_event_dict
from repro.obs.telemetry.aggregate import CampaignTelemetry
from repro.obs.telemetry.emit import (
    current_task,
    emit,
    emit_harness,
    frame_context,
    frame_dict,
    task_telemetry,
    telemetry_active,
)

SAMPLES = {
    "checkpoint_begin": CheckpointBegin(ts_ns=1.0, core=-1, index=2),
    "checkpoint_end": CheckpointEnd(
        ts_ns=2.0, core=-1, index=2, duration_ns=1.0, logged_records=7,
        omitted_records=3, logged_bytes=112, flushed_bytes=128,
        boundary_ns=0.75, cluster_flushed_bytes=(64, 64),
        cluster_barrier_ns=(0.25, 0.5), addrmap_occupancy=9,
    ),
    "interval_boundary": IntervalBoundary(
        ts_ns=1.5, core=-1, index=2, instructions=1000
    ),
    "log_write": LogWrite(ts_ns=0.5, core=0, address=64, line=1,
                          size_bytes=16, taken=False),
    "addrmap_insert": AddrMapInsert(ts_ns=0.5, core=1, address=8, operands=2),
    "addrmap_evict": AddrMapEvict(ts_ns=0.5, core=1, address=8,
                                  reason="replaced"),
    "addrmap_hit": AddrMapHit(ts_ns=0.5, core=1, address=8),
    "slice_recompute": SliceRecompute(ts_ns=3.0, core=0, slice_id=4,
                                      length=5, ns=6.5),
    "recovery_begin": RecoveryBegin(ts_ns=3.0, core=0, error_index=0,
                                    safe_checkpoint=1),
    "recovery_end": RecoveryEnd(
        ts_ns=4.0, core=0, error_index=0, duration_ns=1.0, waste_ns=0.5,
        rollback_ns=0.25, recompute_ns=0.25, restored_records=3,
        recomputed_values=2,
    ),
    "fault_injected": FaultInjected(ts_ns=1.0, core=-1, target="arch",
                                    address=-1, bit=5),
    "recovery_verified": RecoveryVerified(ts_ns=1.0, core=-1,
                                          safe_checkpoint=0,
                                          addresses_checked=12),
    "recovery_diverged": RecoveryDiverged(ts_ns=1.0, core=-1, address=8,
                                          interval=1, expected=3, actual=4),
    "worker_died": WorkerDied(ts_ns=9.0, core=-1, label="acr-worker-0",
                              pid=42),
    "pool_degraded": PoolDegraded(ts_ns=9.0, core=-1, failures=3),
    "campaign_resumed": CampaignResumed(ts_ns=0.0, core=-1, journaled=2,
                                        pending=1),
    "task_started": TaskStarted(ts_ns=0.0, core=-1, pid=42),
    "phase_changed": PhaseChanged(ts_ns=10.0, core=-1, phase="simulate"),
    "task_finished": TaskFinished(
        ts_ns=2.5e9, core=-1, ok=True, seconds=2.5,
        phase_seconds={"simulate": 2.0, "compile": 0.5},
        phase_counts={"simulate": 1, "compile": 1},
    ),
}

_FLOAT = st.floats(allow_nan=False, allow_infinity=False)
#: Annotation -> strategy for one field value (``ts_ns``/``core`` below).
_STRATEGIES = {
    "float": _FLOAT,
    "int": st.integers(),
    "str": st.text(),
    "bool": st.booleans(),
    "Tuple[int, ...]": st.lists(st.integers(), max_size=4).map(tuple),
    "Tuple[float, ...]": st.lists(_FLOAT, max_size=4).map(tuple),
    "Dict[str, float]": st.dictionaries(st.text(), _FLOAT, max_size=3),
    "Dict[str, int]": st.dictionaries(st.text(), st.integers(), max_size=3),
}


def _events(cls):
    kwargs = {
        f: _STRATEGIES[t] for f, t in cls.__annotations__.items()
        if not t.startswith("ClassVar")
    }
    kwargs["ts_ns"] = st.floats(min_value=0.0, allow_nan=False,
                                allow_infinity=False)
    kwargs["core"] = st.integers(min_value=-1, max_value=1 << 20)
    return st.builds(cls, **kwargs)


def _annotations(cls):
    """Field name -> annotation string, base fields included."""
    out = {"ts_ns": "float", "core": "int"}
    for name, ann in cls.__annotations__.items():
        if not ann.startswith("ClassVar"):
            out[name] = ann
    return out


#: Annotation -> a value of the wrong type for it.
_WRONG_TYPE = {
    "float": "1.0",
    "int": 1.5,
    "str": 7,
    "bool": 1,
    "Tuple[int, ...]": [1.5],
    "Tuple[float, ...]": ["x"],
    "Dict[str, float]": ["simulate", 1.0],
    "Dict[str, int]": {"simulate": 1.5},
}

#: Annotation -> a bool where an int is wanted (only for int-bearing types).
_BOOL_FOR_INT = {
    "int": True,
    "Tuple[int, ...]": [True],
    "Dict[str, int]": {"simulate": True},
}


def _corruptions():
    """(event name, case id, corrupted wire dict) for every single-field
    corruption of every sample, plus an unknown name."""
    cases = []
    for name, event in sorted(SAMPLES.items()):
        doc = event.to_dict()
        for field, ann in _annotations(type(event)).items():
            cases.append((name, f"{field}-wrong-type",
                          {**doc, field: _WRONG_TYPE[ann]}))
            if ann in _BOOL_FOR_INT:
                cases.append((name, f"{field}-bool",
                              {**doc, field: _BOOL_FOR_INT[ann]}))
            missing = dict(doc)
            del missing[field]
            cases.append((name, f"{field}-missing", missing))
        cases.append((name, "extra-field", {**doc, "surprise": 1}))
        cases.append((name, "unknown-name", {**doc, "name": "martian"}))
    return cases


CORRUPTIONS = _corruptions()


class TestRoundTrip:
    def test_samples_cover_every_registered_frame_type(self):
        assert set(SAMPLES) == set(EVENT_TYPES)

    @pytest.mark.parametrize("name", sorted(EVENT_TYPES))
    def test_to_dict_from_dict_round_trip(self, name):
        event = SAMPLES[name]
        doc = json.loads(json.dumps(event.to_dict()))
        assert doc["name"] == name
        assert event_from_dict(doc) == event
        assert lint_event_dict(doc) == []

    @pytest.mark.parametrize("name", sorted(EVENT_TYPES))
    def test_generated_events_round_trip(self, name):
        @settings(max_examples=25, deadline=None)
        @given(_events(EVENT_TYPES[name]))
        def check(event):
            doc = json.loads(json.dumps(event.to_dict()))
            assert event_from_dict(doc) == event
            assert lint_event_dict(doc) == []

        check()

    def test_wire_frames_carry_task_and_event(self):
        # A frame is one task-tagged event: the event keeps its own
        # "name" discriminator, the task rides beside it.
        for event in SAMPLES.values():
            doc = frame_dict("bt/ReCkpt_E", event)
            assert doc == {"task": "bt/ReCkpt_E", "event": event.to_dict()}


class TestStrictDecode:
    def test_non_dict_rejected(self):
        with pytest.raises(ValueError, match="not a JSON object"):
            event_from_dict(["task_started"])

    def test_unknown_frame_name_rejected(self):
        with pytest.raises(ValueError, match="unknown event name"):
            event_from_dict({"name": "task_vanished", "ts_ns": 0.0,
                             "core": -1})

    def test_missing_field_rejected(self):
        doc = SAMPLES["task_started"].to_dict()
        del doc["pid"]
        with pytest.raises(ValueError, match="missing field 'pid'"):
            event_from_dict(doc)

    def test_extra_field_rejected(self):
        doc = SAMPLES["interval_boundary"].to_dict()
        doc["surprise"] = 1
        with pytest.raises(ValueError, match="unknown field 'surprise'"):
            event_from_dict(doc)

    def test_bool_is_not_an_int(self):
        doc = SAMPLES["interval_boundary"].to_dict()
        doc["index"] = True
        with pytest.raises(ValueError, match="must be an int"):
            event_from_dict(doc)

    def test_ok_must_be_a_bool(self):
        doc = SAMPLES["task_finished"].to_dict()
        doc["ok"] = 1
        with pytest.raises(ValueError, match="must be a bool"):
            event_from_dict(doc)

    def test_task_must_be_a_string(self):
        doc = SAMPLES["phase_changed"].to_dict()
        doc["phase"] = 7
        with pytest.raises(ValueError, match="must be a string"):
            event_from_dict(doc)
        # The frame's task label is checked as strictly.
        tele = CampaignTelemetry()
        tele.on_frame_dict({"task": 7, "event": SAMPLES["phase_changed"]
                            .to_dict()})
        assert tele.malformed == 1 and tele.frames == 0

    def test_counters_values_must_be_ints(self):
        doc = SAMPLES["task_finished"].to_dict()
        doc["phase_counts"] = {"simulate": "seven"}
        with pytest.raises(ValueError, match="must be an int"):
            event_from_dict(doc)

    def test_phase_seconds_accepts_floats(self):
        doc = SAMPLES["task_finished"].to_dict()
        doc["phase_seconds"] = {"simulate": 2}
        assert event_from_dict(doc).phase_seconds == {"simulate": 2.0}

    def test_non_string_keys_are_rejected_not_raised_through(self):
        doc = {**SAMPLES["addrmap_hit"].to_dict(), 1: 2, "surprise": 3}
        with pytest.raises(ValueError, match="unknown field"):
            event_from_dict(doc)

    def test_lists_decode_to_tuples(self):
        doc = json.loads(json.dumps(SAMPLES["checkpoint_end"].to_dict()))
        assert doc["cluster_flushed_bytes"] == [64, 64]
        assert event_from_dict(doc).cluster_flushed_bytes == (64, 64)

    @pytest.mark.parametrize(
        "doc", [c[2] for c in CORRUPTIONS],
        ids=[f"{c[0]}-{c[1]}" for c in CORRUPTIONS],
    )
    def test_every_single_field_corruption_is_rejected(self, doc):
        with pytest.raises(ValueError):
            event_from_dict(doc)
        # The linter judges with the decoder: they agree on every case.
        assert lint_event_dict(doc) != []


class TestAmbientEmit:
    def test_disabled_by_default(self):
        assert telemetry_active() is False
        assert current_task() == ""
        emit(SAMPLES["task_started"])  # must be a silent no-op
        emit_harness(TaskStarted, pid=1)

    def test_emit_stamps_time_and_task(self):
        seen = []
        with frame_context("bt/Ckpt_E", lambda t, e: seen.append((t, e))):
            assert telemetry_active() is True
            assert current_task() == "bt/Ckpt_E"
            emit(SAMPLES["interval_boundary"])
            emit_harness(PhaseChanged, phase="simulate")
        assert telemetry_active() is False
        [(task, boundary), (_, phase)] = seen
        assert task == "bt/Ckpt_E"
        assert boundary is SAMPLES["interval_boundary"]
        # Harness events: ns since the context started, machine-wide.
        assert phase.ts_ns >= 0.0
        assert phase.core == MACHINE

    def test_contexts_nest_and_restore(self):
        outer, inner = [], []
        with frame_context("outer", lambda t, e: outer.append(t)):
            with frame_context("inner", lambda t, e: inner.append(t)):
                emit_harness(PhaseChanged, phase="simulate")
            emit_harness(PhaseChanged, phase="accounting")
        assert inner == ["inner"]
        assert outer == ["outer"]

    def test_sink_exceptions_are_swallowed(self):
        def broken(task, event):
            raise BrokenPipeError("parent went away")

        with frame_context("t", broken):
            emit_harness(TaskStarted, pid=1)  # must not raise


class TestTaskTelemetry:
    def test_emits_started_and_finished(self):
        events = []
        with task_telemetry("is/ReCkpt_E", lambda t, e: events.append(e)):
            pass
        assert [type(e).__name__ for e in events] == [
            "TaskStarted", "TaskFinished",
        ]
        assert events[1].ok is True
        assert events[1].seconds >= 0.0

    def test_finished_carries_profiler_attribution(self):
        from repro.obs.telemetry import profile

        events = []
        with task_telemetry("t", lambda t, e: events.append(e)):
            with profile.phase("simulate"):
                pass
        finished = events[-1]
        assert finished.phase_counts == {"simulate": 1}
        assert set(finished.phase_seconds) == {"simulate"}
        # Entering the phase also announced it as an event.
        assert any(
            isinstance(e, PhaseChanged) and e.phase == "simulate"
            for e in events
        )

    def test_exception_reports_ok_false_and_propagates(self):
        events = []
        with pytest.raises(RuntimeError):
            with task_telemetry("t", lambda t, e: events.append(e)):
                raise RuntimeError("boom")
        assert events[-1].ok is False
        assert telemetry_active() is False

    def test_none_sink_disables_emission_entirely(self):
        with task_telemetry("t", None):
            assert telemetry_active() is False
