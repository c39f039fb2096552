"""The columnar run payload (cache schema v5): lossless, typed round trips
and a corruption matrix that must read as quarantined misses.

``RunResult.to_payload`` stores ``intervals``/``recoveries`` as one list
per field; ``RunResult.from_payload`` is the one decoder the cache and the
worker pool share.  Every value is type-checked once per column, so a
hand-edited or drifted entry is quarantined instead of crashing a report
several layers later.
"""

import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler.embed import CompileStats
from repro.energy.accounting import EnergyLedger
from repro.experiments.cache import (
    CACHE_SCHEMA_VERSION,
    KIND_TRIAL,
    ResultCache,
)
from repro.experiments.report import generate_report
from repro.experiments.runner import ExperimentRunner
from repro.sim.results import IntervalStats, RecoveryStats, RunResult
from repro.util.validation import field_names

KEY = "ef" * 32

# ---------------------------------------------------------------- strategies
nonneg = st.integers(min_value=0, max_value=2**40)
#: Fractional floats, integral floats (``3.0`` must stay a float) and
#: ints where a float is declared (they must stay ints).
float_like = (
    st.floats(min_value=0.0, max_value=1e12, allow_nan=False)
    | st.integers(min_value=0, max_value=2**30).map(float)
    | st.integers(min_value=0, max_value=2**30)
)

intervals = st.builds(
    IntervalStats,
    index=nonneg, useful_ns=float_like, logged_records=nonneg,
    omitted_records=nonneg, logged_bytes=nonneg, omitted_bytes=nonneg,
    flushed_bytes=nonneg, boundary_ns=float_like, clusters=nonneg,
    footprint_bytes=nonneg,
)
recoveries = st.builds(
    RecoveryStats,
    error_index=nonneg, occurred_useful_ns=float_like,
    detected_useful_ns=float_like,
    safe_checkpoint=st.integers(min_value=-1, max_value=2**20),
    skipped_corrupted=st.booleans(), participants=nonneg,
    waste_ns=float_like, rollback_ns=float_like, recompute_ns=float_like,
    restored_records=nonneg, recomputed_values=nonneg,
    recompute_instructions=nonneg,
)
compile_stats = st.builds(
    CompileStats,
    sites_total=nonneg, sites_sliceable=nonneg, sites_embedded=nonneg,
    sites_loop_carried=nonneg, sites_trivial=nonneg, embedded_bytes=nonneg,
)
run_results = st.builds(
    RunResult,
    label=st.text(max_size=12), scheme=st.sampled_from(["none", "global"]),
    acr=st.booleans(), num_cores=st.integers(min_value=1, max_value=64),
    wall_ns=float_like,
    per_core_useful_ns=st.lists(float_like, min_size=1, max_size=4),
    per_core_overhead_ns=st.lists(float_like, min_size=1, max_size=4),
    energy=st.dictionaries(st.text(min_size=1, max_size=8),
                           st.floats(min_value=0.0, max_value=1e12),
                           max_size=4).map(EnergyLedger.from_dict),
    intervals=st.lists(intervals, max_size=60),
    recoveries=st.lists(recoveries, max_size=4),
    instructions=nonneg, alu_ops=nonneg, loads=nonneg, stores=nonneg,
    assoc_ops=nonneg, l1d_accesses=nonneg, l2_accesses=nonneg,
    memory_accesses=nonneg, writebacks=nonneg,
    compile_stats=st.none() | compile_stats,
    addrmap_records=nonneg, addrmap_rejections=nonneg, omissions=nonneg,
    omission_lookups=nonneg,
)


def typed(value):
    """``value`` with every leaf paired with its type, so equality also
    compares types (``1 == 1.0 == True`` otherwise)."""
    if isinstance(value, dict):
        return {k: typed(v) for k, v in value.items()}
    if isinstance(value, list):
        return [typed(v) for v in value]
    return (type(value).__name__, value)


def wire(result: RunResult) -> dict:
    """``result``'s payload after a JSON round trip, as the cache sees it."""
    return json.loads(json.dumps(result.to_payload()))


def _result(n_intervals: int = 3) -> RunResult:
    return RunResult(
        label="cg/ReCkpt_E", scheme="global", acr=True, num_cores=2,
        wall_ns=100.0, per_core_useful_ns=[90.0, 80],
        per_core_overhead_ns=[10.0, 5.0],
        energy=EnergyLedger.from_dict({"core.alu": 10.0, "l2": 2.5}),
        intervals=[IntervalStats(i, 45.0, 3, 1, 48, 16, 128, 7.5, 1, 256)
                   for i in range(n_intervals)],
        recoveries=[RecoveryStats(0, 10.0, 12.0, 0, False, 2, 1.0, 2.0,
                                  3.0, 4, 5, 6)],
        instructions=1000, alu_ops=600, loads=200, stores=200, assoc_ops=3,
        l1d_accesses=400, l2_accesses=40, memory_accesses=4, writebacks=2,
        compile_stats=CompileStats(18, 4, 3, 1, 14, 96),
        addrmap_records=1, addrmap_rejections=0, omissions=1,
        omission_lookups=2,
    )


# ----------------------------------------------------------------- round trip
class TestRoundTrip:
    @given(result=run_results)
    @settings(max_examples=60, deadline=None)
    def test_payload_round_trip_preserves_values_and_types(self, result):
        rebuilt = RunResult.from_payload(wire(result))
        assert typed(rebuilt.to_dict()) == typed(result.to_dict())
        assert rebuilt.intervals == result.intervals
        assert rebuilt.recoveries == result.recoveries
        assert rebuilt.compile_stats == result.compile_stats

    def test_payload_is_columnar(self):
        payload = _result(5).to_payload()
        assert payload["intervals"]["index"] == [0, 1, 2, 3, 4]
        assert set(payload["intervals"]) == set(field_names(IntervalStats))
        assert set(payload["recoveries"]) == set(field_names(RecoveryStats))
        # Every other field is the row form's, unchanged.
        rows = _result(5).to_dict()
        for name, value in payload.items():
            if name not in ("intervals", "recoveries"):
                assert rows[name] == value


# --------------------------------------------------------- corruption matrix
def _poisoned(tmp_path: Path, mutate) -> ResultCache:
    cache = ResultCache(tmp_path)
    cache.store(KEY, _result())
    path = cache.path_for(KEY)
    envelope = json.loads(path.read_text())
    mutate(envelope)
    path.write_text(json.dumps(envelope))
    return cache


def _assert_quarantined(cache: ResultCache) -> None:
    path = cache.path_for(KEY)
    assert cache.load(KEY) is None
    assert not path.exists()
    assert cache.quarantined == 1


def _set(path, value):
    """A mutation that sets ``envelope[path...]`` to ``value``."""
    def mutate(envelope):
        doc = envelope
        for part in path[:-1]:
            doc = doc[part]
        doc[path[-1]] = value
    return mutate


def _delete(path):
    def mutate(envelope):
        doc = envelope
        for part in path[:-1]:
            doc = doc[part]
        del doc[path[-1]]
    return mutate


STRUCTURAL = {
    "missing column": _delete(("result", "intervals", "clusters")),
    "extra column": _set(("result", "recoveries", "bogus"), [1]),
    "ragged columns": _set(("result", "intervals", "index"), [0, 1]),
    "string column": _set(("result", "intervals", "index"), "012"),
    "dict column": _set(("result", "intervals", "index"), {"0": 0}),
    "null column": _set(("result", "recoveries", "waste_ns"), None),
    "v4 row dicts": _set(("result", "intervals"),
                         [iv.to_dict() for iv in _result().intervals]),
    "null columns": _set(("result", "intervals"), None),
    "missing envelope key": _delete(("code",)),
    "missing kind": _delete(("kind",)),
    "extra envelope key": _set(("written_by",), "someone"),
    "missing result field": _delete(("result", "omissions")),
    "energy list": _set(("result", "energy"), [1.0]),
    "bool energy bucket": _set(("result", "energy", "l2"), True),
    "string energy bucket": _set(("result", "energy", "l2"), "2.5"),
    "obs list": _set(("result", "obs"), [1, 2]),
    "compile_stats list": _set(("result", "compile_stats"), [18, 4]),
    "per-core string": _set(("result", "per_core_useful_ns"), "90"),
}


def _wrong_typed(cls):
    """(id, mutation) for one wrong-typed value in each of ``cls``'s
    columns: a string, plus a ``bool`` where a number is declared and
    an ``int`` where a ``bool`` is."""
    where = {IntervalStats: ("result", "intervals"),
             RecoveryStats: ("result", "recoveries")}[cls]
    for name in field_names(cls):
        column = where + (name,)
        yield f"{cls.__name__}.{name}=str", _set(column + (0,), "12")
        if name == "skipped_corrupted":
            yield f"{cls.__name__}.{name}=int", _set(column + (0,), 1)
        else:
            yield f"{cls.__name__}.{name}=bool", _set(column + (0,), True)


def _wrong_scalars():
    """One wrong-typed value per ``RunResult`` scalar/list field and per
    ``CompileStats`` field."""
    doc = _result().to_payload()
    for name, value in doc.items():
        if name in ("intervals", "recoveries", "energy", "obs",
                    "compile_stats"):
            continue
        if isinstance(value, list):
            yield f"RunResult.{name}[0]=str", _set(
                ("result", name, 0), "1")
        elif isinstance(value, (bool, str)):
            yield f"RunResult.{name}=int", _set(("result", name), 1)
        else:
            yield f"RunResult.{name}=bool", _set(("result", name), False)
            yield f"RunResult.{name}=str", _set(("result", name), "1")
    for name in field_names(CompileStats):
        yield f"CompileStats.{name}=str", _set(
            ("result", "compile_stats", name), "4")
        yield f"CompileStats.{name}=float", _set(
            ("result", "compile_stats", name), 4.0)


WRONG_TYPED = dict(
    list(_wrong_typed(IntervalStats)) + list(_wrong_typed(RecoveryStats))
    + list(_wrong_scalars())
)


class TestCorruptionMatrix:
    @pytest.mark.parametrize("case", sorted(STRUCTURAL))
    def test_structural_corruption_is_quarantined(self, tmp_path, case):
        _assert_quarantined(_poisoned(tmp_path, STRUCTURAL[case]))

    @pytest.mark.parametrize("case", sorted(WRONG_TYPED))
    def test_wrong_typed_value_is_quarantined(self, tmp_path, case):
        _assert_quarantined(_poisoned(tmp_path, WRONG_TYPED[case]))

    def test_every_field_has_a_wrong_typed_case(self):
        covered = {case.split("=")[0].split("[")[0] for case in WRONG_TYPED}
        for cls in (IntervalStats, RecoveryStats, CompileStats):
            for name in field_names(cls):
                assert f"{cls.__name__}.{name}" in covered

    def test_int_where_float_declared_is_accepted(self, tmp_path):
        cache = _poisoned(
            tmp_path, _set(("result", "intervals", "useful_ns", 0), 45))
        loaded = cache.load(KEY)
        assert loaded is not None and cache.quarantined == 0
        assert type(loaded.intervals[0].useful_ns) is int

    @pytest.mark.parametrize("case", ["missing envelope key",
                                      "extra envelope key"])
    def test_trial_envelope_is_exact_too(self, tmp_path, case):
        cache = ResultCache(tmp_path)
        cache.store_payload(KEY, {"anything": 1}, KIND_TRIAL)
        assert cache.load_payload(KEY, KIND_TRIAL) == {"anything": 1}
        path = cache.path_for(KEY)
        envelope = json.loads(path.read_text())
        STRUCTURAL[case](envelope)
        path.write_text(json.dumps(envelope))
        assert cache.load_payload(KEY, KIND_TRIAL) is None
        assert not path.exists() and cache.quarantined == 1

    def test_v4_entry_reads_as_a_miss(self, tmp_path):
        def as_v4(envelope):
            envelope["schema"] = 4
            envelope["result"] = _result().to_dict()

        assert CACHE_SCHEMA_VERSION == 5
        _assert_quarantined(_poisoned(tmp_path, as_v4))

    def test_envelope_is_compact(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(KEY, _result())
        text = cache.path_for(KEY).read_text()
        assert ", " not in text and ": " not in text


# ------------------------------------------------- wrong type in a warm cache
class TestWrongTypedReportEntry:
    def test_report_quarantines_and_resimulates_once(self, tmp_path):
        def runner():
            rn = ExperimentRunner(num_cores=2, region_scale=0.01, reps=1,
                                  cache_dir=tmp_path / "cache")
            rn.workloads = lambda: ["is"]
            return rn

        generate_report(runner(), stream=io.StringIO(),
                        out_dir=tmp_path / "cold")
        entries = sorted((tmp_path / "cache").glob("*/*.json"))
        poisoned = next(
            p for p in entries
            if json.loads(p.read_text())["result"]["intervals"]["index"]
        )
        envelope = json.loads(poisoned.read_text())
        envelope["result"]["intervals"]["logged_bytes"][0] = "12"
        poisoned.write_text(json.dumps(envelope))

        warm = runner()
        generate_report(warm, stream=io.StringIO(), out_dir=tmp_path / "warm")
        assert warm.cache.quarantined == 1
        assert warm.progress.simulated == 1
        for cold in sorted((tmp_path / "cold").glob("*.txt")):
            if cold.name != "run_summary.txt":
                assert (tmp_path / "warm" / cold.name).read_text() \
                    == cold.read_text()
