"""The retention invariant: only the two youngest completed logs hold
payloads.

``CheckpointStore`` clears one log per establishment, the one that just
left the two-checkpoint window, so the invariant must hold after any
sequence of establishments, and after :meth:`Mechanism.restore` (which
therefore refuses a snapshot whose older checkpoints still carry a
payload).  Rollback planning must not notice how pruning is done.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.config import MachineConfig
from repro.ckpt.checkpoint import RETAINED_CHECKPOINTS, CheckpointStore
from repro.isa.interpreter import MemoryImage
from repro.sim.mechanism import Mechanism
from repro.sim.snapshot import SimSnapshot, SnapshotError

#: Per interval: how many records and how many omissions it closes with.
intervals = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=12
)

#: Caller-owned snapshot fields a bare mechanism has no use for.
_STATE = dict(step=0, n_instructions=0, arch=[], initial_arch=[],
              arch_history=[], rng_states={})


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


def establish_all(mech, spec, recorded, start=0):
    for k, (records, _) in enumerate(spec, start):
        fill(mech.store.current_log, k, records)
        recorded.append((list(mech.store.current_log.records), []))
        mech.establish(float(k + 1), float(k + 1))


class TestRestoreRetention:
    @given(intervals, intervals, st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_restored_store_keeps_the_invariant(self, before, after, open_n):
        mech = ber_mechanism()
        recorded = []
        establish_all(mech, before, recorded)
        fill(mech.store.current_log, len(before), open_n)
        open_payload = (list(mech.store.current_log.records), [])
        blob = mech.snapshot(**_STATE).to_bytes()

        restored = ber_mechanism()
        restored.restore(SimSnapshot.from_bytes(blob))
        store = restored.store
        assert payloads(store) == expected_payloads(store, recorded)
        assert rollback_plans(store) == reference_plans(recorded, open_payload)

        # Establishing on from the restored state keeps the invariant.
        recorded.append(open_payload)
        restored.establish(float(len(before) + 1), float(len(before) + 1))
        establish_all(restored, after, recorded, start=len(before) + 1)
        assert payloads(store) == expected_payloads(store, recorded)
        assert rollback_plans(store) == reference_plans(recorded, ([], []))

    @pytest.mark.parametrize("field", ["records", "omitted"])
    def test_payload_beyond_the_window_is_refused(self, field):
        mech = ber_mechanism()
        establish_all(mech, [(1, 0)] * (RETAINED_CHECKPOINTS + 1), [])
        doc = mech.snapshot(**_STATE).to_payload()
        stale = doc["checkpoints"][0]["log"]
        assert stale["records"] == [] and stale["omitted"] == []
        stale[field] = (
            [[8, 1, 0]] if field == "records" else [[8, 0, 0, 1]]
        )
        with pytest.raises(SnapshotError, match="retention window"):
            ber_mechanism().restore(SimSnapshot.from_payload(doc))

    def test_payload_inside_the_window_is_accepted(self):
        mech = ber_mechanism()
        establish_all(mech, [(1, 0)] * (RETAINED_CHECKPOINTS + 1), [])
        restored = ber_mechanism()
        restored.restore(SimSnapshot.from_payload(
            mech.snapshot(**_STATE).to_payload()))
        assert payloads(restored.store) == payloads(mech.store)
