"""Warm cache reads: pinned key and entry bytes, exact-field decoding, and
timing-free guards on the per-entry decode cost.

A changed :func:`run_cache_key` would silently orphan every existing
user cache, so the key for one fixed run, and the keys of one report's
whole run matrix, are pinned to their hex digests; so are the bytes of
one stored entry.
The decode guards count calls instead of timing them: schema
introspection (``dataclasses.fields``) and machine flattening
(``dataclasses.asdict``) must happen once per class / per machine, not
once per entry, and exact-field checks (``require_fields``) once per
class in an entry, not once per interval row.
"""

import dataclasses
import hashlib
import json
import sys
from collections import Counter
from contextlib import contextmanager

import pytest

from repro.arch.config import MachineConfig
from repro.compiler.embed import CompileStats
from repro.energy.accounting import EnergyLedger
from repro.experiments.cache import ResultCache, run_cache_key
from repro.experiments.configs import ConfigRequest
from repro.experiments.report import paper_run_matrix
from repro.experiments.runner import ExperimentRunner
from repro.sim.results import IntervalStats, RecoveryStats, RunResult
from repro.util import validation

KEY = "ab" * 32

#: ``run_cache_key("is", ConfigRequest("ReCkpt_E"), MachineConfig(), 0.1,
#: 12)`` as computed by the code that wrote the caches in use today.  The
#: schema version is part of the key: this is the v5 key, whose bytes
#: differ from v4's only in the ``"schema"`` value.
PINNED_KEY = "a4805292e5c89a863f51a7a7b5ffd37c7bb1d31547f7d055f94d8cca892eecd0"
#: sha256 of the 217 v5 keys of ``paper_run_matrix`` at 2 cores, scale
#: 0.01, reps 1, concatenated in matrix order.
PINNED_MATRIX_KEYS = (
    "0c9bc840c10fe55667f9f7b40875283e3c4183b6dfc62d0b6c78b738df081cb0")
#: sha256 of the entry :meth:`ResultCache.store` writes for ``_result()``
#: under ``KEY``.
PINNED_ENTRY = (
    "6471b1bd7b1ed836b25fb9a750f76384ec9ff5fdd5370b3776d60422ae2d83bd")


def _result(intervals: int = 3) -> RunResult:
    return RunResult(
        label="is/ReCkpt_E", scheme="global", acr=True, num_cores=2,
        wall_ns=100.0, per_core_useful_ns=[90.0, 80.0],
        per_core_overhead_ns=[10.0, 5.0],
        energy=EnergyLedger.from_dict({"core.alu": 10.0, "l2": 2.5}),
        intervals=[IntervalStats(i, 45.0, 3, 1, 48, 16, 128, 7.0, 1, 256)
                   for i in range(intervals)],
        recoveries=[RecoveryStats(0, 10.0, 12.0, 0, False, 2, 1.0, 2.0,
                                  3.0, 4, 5, 6)],
        instructions=1000, alu_ops=600, loads=200, stores=200, assoc_ops=3,
        l1d_accesses=400, l2_accesses=40, memory_accesses=4, writebacks=2,
        compile_stats=CompileStats(18, 4, 3, 1, 14, 96),
        addrmap_records=1, addrmap_rejections=0, omissions=1,
        omission_lookups=2,
    )


class TestPinnedKeys:
    def test_key_bytes_unchanged(self):
        key = run_cache_key("is", ConfigRequest("ReCkpt_E"), MachineConfig(),
                            0.1, 12)
        assert key == PINNED_KEY

    def test_report_matrix_keys_unchanged(self):
        runner = ExperimentRunner(num_cores=2, region_scale=0.01, reps=1)
        keys = [runner.cache_key(*pair)
                for pair in paper_run_matrix(runner)]
        assert len(keys) == len(set(keys)) == 217
        digest = hashlib.sha256("".join(keys).encode()).hexdigest()
        assert digest == PINNED_MATRIX_KEYS

    def test_entry_bytes_unchanged(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.store(KEY, _result())
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_ENTRY

    def test_equal_machines_share_a_key(self):
        a, b = MachineConfig(), MachineConfig()
        assert a is not b
        request = ConfigRequest("Ckpt_NE", num_checkpoints=5)
        assert (run_cache_key("bt", request, a, 0.5, None)
                == run_cache_key("bt", request, b, 0.5, None))

    def test_machine_field_changes_the_key(self):
        base = MachineConfig()
        bigger_l2 = dataclasses.replace(
            base, l2=dataclasses.replace(base.l2,
                                         size_bytes=2 * base.l2.size_bytes))
        request = ConfigRequest("ReCkpt_E")
        assert (run_cache_key("is", request, bigger_l2, 0.1, 12)
                != PINNED_KEY)
        assert (run_cache_key("is", request, base.with_cores(2), 0.1, 12)
                != PINNED_KEY)


@contextmanager
def first_args_of_calls(func):
    """Collect the first argument of every call to the Python function
    ``func`` while the block runs, however the caller imported it."""
    code = func.__code__
    seen = []
    previous = sys.getprofile()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            seen.append(frame.f_locals[code.co_varnames[0]])

    sys.setprofile(profile)
    try:
        yield seen
    finally:
        sys.setprofile(previous)


class TestDecodeCost:
    def test_fields_called_at_most_once_per_class(self):
        payload = json.loads(json.dumps(_result().to_payload()))
        with first_args_of_calls(dataclasses.fields) as seen:
            for _ in range(100):
                RunResult.from_payload(payload)
        per_class = Counter(x if isinstance(x, type) else type(x)
                            for x in seen)
        assert all(n <= 1 for n in per_class.values()), per_class

    def test_require_fields_once_per_class_not_per_row(self):
        counts = []
        for n in (1, 60):
            payload = json.loads(json.dumps(_result(n).to_payload()))
            with first_args_of_calls(validation.require_fields) as seen:
                RunResult.from_payload(payload)
            counts.append(len(seen))
        # RunResult, IntervalStats, RecoveryStats, CompileStats.
        assert counts == [4, 4]

    def test_asdict_called_once_per_machine(self):
        # A machine no other test has keyed, so the memo starts cold.
        machine = dataclasses.replace(MachineConfig(), noc_hop_ns=1.2345)
        with first_args_of_calls(dataclasses.asdict) as seen:
            keys = {
                run_cache_key(f"w{i % 7}",
                              ConfigRequest("ReCkpt_NE", threshold=1 + i),
                              machine, 0.01, 1)
                for i in range(217)
            }
        assert len(keys) == 217
        assert seen == [machine]


class TestDefaultedFieldsAreStrict:
    def test_missing_defaulted_field_raises(self):
        data = _result().to_payload()
        del data["intervals"]["footprint_bytes"]
        with pytest.raises(ValueError):
            RunResult.from_payload(data)

    def test_unknown_field_raises_value_error(self):
        data = _result().to_payload()
        data["checkpoint_store"] = None  # never serialised
        with pytest.raises(ValueError):
            RunResult.from_payload(data)

    def test_missing_defaulted_field_quarantines_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(KEY, _result())
        path = cache.path_for(KEY)
        envelope = json.loads(path.read_text())
        del envelope["result"]["intervals"]["footprint_bytes"]
        path.write_text(json.dumps(envelope))
        assert cache.load(KEY) is None
        assert not path.exists()
        assert cache.quarantined == 1

    def test_round_trip_through_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = _result()
        cache.store(KEY, result)
        loaded = cache.load(KEY)
        assert loaded is not None and loaded.equivalent(result)
        assert loaded.compile_stats == result.compile_stats
        assert cache.quarantined == 0
