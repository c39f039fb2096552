"""The retention invariant: only the two youngest completed logs hold
payloads.

``CheckpointStore`` clears one log per establishment, the one that just
left the two-checkpoint window, so the invariant must hold after any
sequence of establishments, and after :meth:`Mechanism.restore` of any
recorded boundary (every interval record keeps its log rows, and the
restore installs only the two the window retains).  Rollback planning
must not notice how pruning is done.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.config import MachineConfig
from repro.ckpt.checkpoint import RETAINED_CHECKPOINTS, CheckpointStore
from repro.inject.harness import TrialSpec, fork, run_golden
from repro.isa.interpreter import MemoryImage
from repro.sim.mechanism import Mechanism, SnapshotRecorder
from repro.sim.snapshot import SimHistory

#: Per interval: how many records and how many omissions it closes with.
intervals = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=12
)

#: Architectural rows of a bare two-core mechanism (it runs no program).
_ARCH = [[0, 0, []], [0, 0, []]]


def fill(log, k, records, omitted=0):
    """Give interval ``k``'s open ``log`` distinct, recognisable payload."""
    for r in range(records):
        log.add_record(k * 1000 + r * 8, k, core=r % 2)
    for o in range(omitted):
        log.add_omitted(k * 1000 + 512 + o * 8, object(), o % 2, k)


def payloads(store):
    """Per completed checkpoint, its log's (records, omitted) payload."""
    return [(list(c.log.records), list(c.log.omitted))
            for c in store.checkpoints]


def expected_payloads(store, recorded):
    """``recorded`` with everything older than the window emptied."""
    horizon = len(store.checkpoints) - RETAINED_CHECKPOINTS
    return [([], []) if k < horizon else p for k, p in enumerate(recorded)]


def rollback_plans(store):
    """Every legal rollback: safe index -> interval indexes and payloads."""
    count = len(store.checkpoints)
    return {
        safe: [(log.interval_index, list(log.records), list(log.omitted))
               for log in store.logs_to_rollback(safe)]
        for safe in range(max(-1, count - RETAINED_CHECKPOINTS), count)
    }


def reference_plans(recorded, open_payload):
    """What :func:`rollback_plans` must read, from the recorded payloads."""
    count = len(recorded)
    return {
        safe: [(count, *open_payload)]
        + [(k, *recorded[k]) for k in range(count - 1, safe, -1)]
        for safe in range(max(-1, count - RETAINED_CHECKPOINTS), count)
    }


class TestStoreRetention:
    @given(intervals)
    @settings(max_examples=80, deadline=None)
    def test_only_the_window_holds_payloads(self, spec):
        store = CheckpointStore(arch_bytes_per_core=64, num_cores=2)
        recorded = []
        for k, (records, omitted) in enumerate(spec):
            fill(store.current_log, k, records, omitted)
            recorded.append((list(store.current_log.records),
                             list(store.current_log.omitted)))
            store.establish(float(k + 1), float(k + 1))
            assert payloads(store) == expected_payloads(store, recorded)
            assert rollback_plans(store) == reference_plans(recorded, ([], []))
        # Size metadata survives pruning.
        assert [c.data_bytes for c in store.checkpoints] == [
            16 * r for r, _ in spec]
        assert [c.omitted_bytes for c in store.checkpoints] == [
            16 * o for _, o in spec]


def ber_mechanism():
    config = MachineConfig(num_cores=2)
    return Mechanism(config, MemoryImage(7))


def establish_all(mech, spec, recorded, recorder=None, start=0):
    """Close one interval per ``spec`` entry, each with its records'
    words written as a pass writes them, recording each boundary."""
    for k, (records, _) in enumerate(spec, start):
        for r in range(records):
            address = k * 1000 + r * 8
            old = mech.memory.write(address, k)
            mech.store.current_log.add_record(address, old, r % 2)
        recorded.append((list(mech.store.current_log.records), []))
        mech.establish(float(k + 1), float(k + 1))
        if recorder is not None:
            recorder.record(_ARCH, k + 1, 0)


def recorded_history(mech, spec, recorded):
    recorder = SnapshotRecorder(mech, _ARCH)
    establish_all(mech, spec, recorded, recorder)
    return SimHistory.from_bytes(recorder.history().to_bytes())


class TestRestoreRetention:
    @given(intervals, intervals)
    @settings(max_examples=40, deadline=None)
    def test_restored_store_keeps_the_invariant(self, before, after):
        recorded = []
        history = recorded_history(ber_mechanism(), before, recorded)
        for m in range(len(before) + 1):
            restored = ber_mechanism()
            restored.restore(history, m)
            store = restored.store
            assert payloads(store) == expected_payloads(store, recorded[:m])
            assert rollback_plans(store) == reference_plans(
                recorded[:m], ([], []))

        # Establishing on from the restored state keeps the invariant.
        establish_all(restored, after, recorded, start=len(before))
        assert payloads(store) == expected_payloads(store, recorded)
        assert rollback_plans(store) == reference_plans(recorded, ([], []))

    @pytest.mark.parametrize("field", ["records", "omitted"])
    def test_payload_beyond_the_window_is_refused(self, field):
        # Every interval record keeps its rows, since a younger boundary
        # needs them; restoring an older one must refuse them all the
        # same, leaving the checkpoint's log as pruning left it.
        spec = TrialSpec(workload="dc", config="ACR")
        history = run_golden(spec).history
        k = next(k for k, r in enumerate(history.intervals)
                 if getattr(r, field)
                 and k + RETAINED_CHECKPOINTS < len(history.intervals))
        for m in range(k + 1, len(history.intervals) + 1):
            log = fork(spec, history, m)[0].mech.store.checkpoints[k].log
            held = len(getattr(log, field))
            if m - k <= RETAINED_CHECKPOINTS:
                assert held == len(getattr(history.intervals[k], field))
            else:
                assert held == 0

    def test_payload_inside_the_window_is_accepted(self):
        mech = ber_mechanism()
        spec = [(1, 0)] * (RETAINED_CHECKPOINTS + 1)
        history = recorded_history(mech, spec, [])
        restored = ber_mechanism()
        restored.restore(history, len(spec))
        assert payloads(restored.store) == payloads(mech.store)
