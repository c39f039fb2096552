"""Property tests for the persistent result cache.

Two contracts:

* serialise→deserialise of :class:`RunResult` (with nested
  :class:`IntervalStats`, :class:`RecoveryStats`, :class:`EnergyLedger`,
  :class:`CompileStats`) through its columnar payload is lossless for
  arbitrary field values;
* corrupt, truncated or schema-drifted cache files are detected,
  quarantined and reported as misses — never crashes, never half-built
  results.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.embed import CompileStats
from repro.energy.accounting import EnergyLedger
from repro.experiments.cache import CACHE_SCHEMA_VERSION, ResultCache
from repro.sim.results import IntervalStats, RecoveryStats, RunResult

# ---------------------------------------------------------------- strategies
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
nonneg = st.integers(min_value=0, max_value=2**40)
any_int = st.integers(min_value=-(2**40), max_value=2**40)
nonneg_f = st.floats(
    min_value=0.0, allow_nan=False, allow_infinity=False, width=64
)

interval_stats = st.builds(
    IntervalStats,
    index=nonneg,
    useful_ns=nonneg_f,
    logged_records=nonneg,
    omitted_records=nonneg,
    logged_bytes=nonneg,
    omitted_bytes=nonneg,
    flushed_bytes=nonneg,
    boundary_ns=nonneg_f,
    clusters=nonneg,
    footprint_bytes=nonneg,
)

recovery_stats = st.builds(
    RecoveryStats,
    error_index=nonneg,
    occurred_useful_ns=nonneg_f,
    detected_useful_ns=nonneg_f,
    safe_checkpoint=st.integers(min_value=-1, max_value=2**20),
    skipped_corrupted=st.booleans(),
    participants=nonneg,
    waste_ns=nonneg_f,
    rollback_ns=nonneg_f,
    recompute_ns=nonneg_f,
    restored_records=nonneg,
    recomputed_values=nonneg,
    recompute_instructions=nonneg,
)

compile_stats = st.builds(
    CompileStats,
    sites_total=nonneg,
    sites_sliceable=nonneg,
    sites_embedded=nonneg,
    sites_loop_carried=nonneg,
    sites_trivial=nonneg,
    embedded_bytes=nonneg,
)

energy_ledgers = st.dictionaries(
    st.text(min_size=1, max_size=30), nonneg_f, max_size=8
).map(EnergyLedger.from_dict)

run_results = st.builds(
    RunResult,
    label=st.text(max_size=20),
    scheme=st.sampled_from(["none", "global", "local"]),
    acr=st.booleans(),
    num_cores=st.integers(min_value=1, max_value=64),
    wall_ns=nonneg_f,
    per_core_useful_ns=st.lists(finite, min_size=1, max_size=8),
    per_core_overhead_ns=st.lists(finite, min_size=1, max_size=8),
    energy=energy_ledgers,
    intervals=st.lists(interval_stats, max_size=5),
    recoveries=st.lists(recovery_stats, max_size=5),
    instructions=nonneg,
    alu_ops=nonneg,
    loads=nonneg,
    stores=nonneg,
    assoc_ops=nonneg,
    l1d_accesses=nonneg,
    l2_accesses=nonneg,
    memory_accesses=nonneg,
    writebacks=nonneg,
    compile_stats=st.none() | compile_stats,
    addrmap_records=nonneg,
    addrmap_rejections=nonneg,
    omissions=nonneg,
    omission_lookups=nonneg,
    checkpoint_store=st.none(),
)

KEY = "ab" * 32  # a syntactically valid content hash


def _payload_round_trip(result: RunResult) -> RunResult:
    """``result`` rebuilt from its payload's JSON text."""
    wire = json.dumps(result.to_payload(), sort_keys=True)
    return RunResult.from_payload(json.loads(wire))


def _carrying(intervals=(), recoveries=()) -> RunResult:
    """A minimal result that carries the given rows."""
    return RunResult(
        label="x", scheme="global", acr=True, num_cores=1, wall_ns=1.0,
        per_core_useful_ns=[1.0], per_core_overhead_ns=[0.0],
        energy=EnergyLedger(), intervals=list(intervals),
        recoveries=list(recoveries), instructions=0, alu_ops=0, loads=0,
        stores=0, assoc_ops=0, l1d_accesses=0, l2_accesses=0,
        memory_accesses=0, writebacks=0, compile_stats=None,
        addrmap_records=0, addrmap_rejections=0, omissions=0,
        omission_lookups=0,
    )


# ----------------------------------------------------------------- round trip
class TestRoundTrip:
    @given(result=run_results)
    @settings(max_examples=60, deadline=None)
    def test_run_result_json_round_trip_lossless(self, result):
        rebuilt = _payload_round_trip(result)
        assert rebuilt.to_dict() == result.to_dict()
        assert rebuilt.equivalent(result)
        assert rebuilt.energy == result.energy
        assert rebuilt.intervals == result.intervals
        assert rebuilt.recoveries == result.recoveries
        assert rebuilt.compile_stats == result.compile_stats
        assert rebuilt.checkpoint_store is None

    @given(iv=interval_stats)
    @settings(max_examples=40, deadline=None)
    def test_interval_stats_round_trip(self, iv):
        rebuilt = _payload_round_trip(_carrying(intervals=[iv]))
        assert list(rebuilt.intervals) == [iv]

    @given(rec=recovery_stats)
    @settings(max_examples=40, deadline=None)
    def test_recovery_stats_round_trip(self, rec):
        rebuilt = _payload_round_trip(_carrying(recoveries=[rec]))
        assert list(rebuilt.recoveries) == [rec]

    @given(ledger=energy_ledgers)
    @settings(max_examples=40, deadline=None)
    def test_energy_ledger_round_trip(self, ledger):
        rebuilt = EnergyLedger.from_dict(json.loads(json.dumps(ledger.to_dict())))
        assert rebuilt == ledger
        assert rebuilt.total_pj() == ledger.total_pj()

    @given(result=run_results)
    @settings(max_examples=25, deadline=None)
    def test_store_load_through_cache(self, tmp_path_factory, result):
        cache = ResultCache(tmp_path_factory.mktemp("cache"))
        cache.store(KEY, result)
        assert KEY in cache
        loaded = cache.load(KEY)
        assert loaded is not None
        assert loaded.equivalent(result)


# ----------------------------------------------------------- strict rejection
class TestStrictDeserialisation:
    def test_unknown_field_rejected(self):
        iv = IntervalStats(0, 1.0, 1, 1, 16, 16, 64, 5.0, 1)
        data = _carrying(intervals=[iv]).to_payload()
        data["intervals"]["bogus"] = [1]
        with pytest.raises(ValueError):
            RunResult.from_payload(data)

    def test_missing_field_rejected(self):
        iv = IntervalStats(0, 1.0, 1, 1, 16, 16, 64, 5.0, 1)
        data = _carrying(intervals=[iv]).to_payload()
        del data["intervals"]["clusters"]
        with pytest.raises(ValueError):
            RunResult.from_payload(data)

    def test_non_mapping_rejected(self):
        with pytest.raises(ValueError):
            RunResult.from_payload([1, 2, 3])

    def test_malformed_nested_payload_rejected(self):
        with pytest.raises(ValueError):
            RunResult.from_payload({"energy": 3})

    def test_malformed_energy_bucket_rejected(self):
        for bad in ({"core.alu": "a lot"}, {"core.alu": True}, [1.0]):
            with pytest.raises(ValueError):
                EnergyLedger.from_dict(bad)


# ------------------------------------------------------- corrupt cache files
@pytest.fixture()
def cache_with_entry(tmp_path, small_run_result):
    cache = ResultCache(tmp_path / "cache")
    cache.store(KEY, small_run_result)
    return cache


@pytest.fixture(scope="module")
def small_run_result():
    return RunResult(
        label="Ckpt_NE",
        scheme="global",
        acr=False,
        num_cores=2,
        wall_ns=100.0,
        per_core_useful_ns=[90.0, 80.0],
        per_core_overhead_ns=[10.0, 5.0],
        energy=EnergyLedger.from_dict({"core.alu": 10.0}),
        intervals=[IntervalStats(0, 45.0, 3, 1, 48, 16, 128, 7.0, 1, 256)],
        recoveries=[],
        instructions=1000,
        alu_ops=600,
        loads=200,
        stores=200,
        assoc_ops=0,
        l1d_accesses=400,
        l2_accesses=40,
        memory_accesses=4,
        writebacks=2,
        compile_stats=None,
        addrmap_records=0,
        addrmap_rejections=0,
        omissions=0,
        omission_lookups=0,
    )


class TestCorruptEntries:
    def test_missing_entry_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.load(KEY) is None

    @pytest.mark.parametrize(
        "garbage",
        [
            "",                      # empty file
            "{",                     # invalid JSON
            "not json at all",       # not JSON
            "[1, 2, 3]",             # JSON, wrong shape
            '{"schema": 0}',         # version mismatch
            json.dumps({"schema": CACHE_SCHEMA_VERSION, "key": "ff" * 32,
                        "result": {}}),          # key mismatch
            json.dumps({"schema": CACHE_SCHEMA_VERSION, "key": KEY,
                        "result": {"label": "x"}}),   # truncated result
            json.dumps({"schema": CACHE_SCHEMA_VERSION, "key": KEY,
                        "result": None}),        # null result
        ],
    )
    def test_corrupt_entry_is_miss_and_quarantined(
        self, cache_with_entry, garbage
    ):
        path = cache_with_entry.path_for(KEY)
        path.write_text(garbage)
        assert cache_with_entry.load(KEY) is None
        assert not path.exists(), "corrupt entry should be deleted"

    def test_truncated_valid_entry_is_miss(self, cache_with_entry):
        path = cache_with_entry.path_for(KEY)
        raw = path.read_text()
        path.write_text(raw[: len(raw) // 2])
        assert cache_with_entry.load(KEY) is None
        assert not path.exists()

    def test_entry_not_utf8_is_miss_and_quarantined(self, cache_with_entry):
        path = cache_with_entry.path_for(KEY)
        raw = path.read_bytes()
        at = raw.index(b'"label":"') + len(b'"label":"')
        path.write_bytes(raw[:at] + b"\xff" + raw[at + 1:])
        assert cache_with_entry.load(KEY) is None
        assert cache_with_entry.quarantined == 1
        assert not path.exists()

    def test_unknown_result_field_is_miss(self, cache_with_entry,
                                          small_run_result):
        path = cache_with_entry.path_for(KEY)
        envelope = json.loads(path.read_text())
        envelope["result"]["from_the_future"] = 1
        path.write_text(json.dumps(envelope))
        assert cache_with_entry.load(KEY) is None

    def test_rewrite_after_quarantine(self, cache_with_entry,
                                      small_run_result):
        path = cache_with_entry.path_for(KEY)
        path.write_text("garbage")
        assert cache_with_entry.load(KEY) is None
        cache_with_entry.store(KEY, small_run_result)
        loaded = cache_with_entry.load(KEY)
        assert loaded is not None and loaded.equivalent(small_run_result)

    def test_malformed_key_rejected(self, tmp_path):
        cache = ResultCache(tmp_path)
        for bad in ("", "../escape", "XYZ", "ab/cd"):
            with pytest.raises(ValueError):
                cache.path_for(bad)


class TestManagement:
    def test_len_clear_describe(self, tmp_path, small_run_result):
        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        cache.store(KEY, small_run_result)
        cache.store("cd" * 32, small_run_result)
        assert len(cache) == 2
        desc = cache.describe()
        assert desc["entries"] == 2 and desc["bytes"] > 0
        assert cache.clear() == 2
        assert len(cache) == 0 and cache.load(KEY) is None

    def test_atomic_store_leaves_no_temp_files(self, tmp_path,
                                               small_run_result):
        cache = ResultCache(tmp_path)
        cache.store(KEY, small_run_result)
        leftovers = [p for p in tmp_path.rglob("*") if p.suffix == ".tmp"]
        assert leftovers == []
