"""``StatsTable``: the columnar form of per-interval and per-recovery
statistics, checked against the row-by-row code it replaced.

Every column-native reader must return exactly what the same expression
evaluated row by row returns: equal as floats *and* equal in ``repr``, so
an int total never turns into a float, and a float sum is added up in
the same order.  Each case runs twice, once on a table built from rows
(as the simulator does) and once on a table decoded from a JSON payload
(as the result cache does).
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.baselines import (
    HierarchicalConfig,
    full_snapshot_costs,
    hierarchical_costs,
)
from repro.analysis.decomposition import decompose_overhead, recovery_anatomy
from repro.energy.accounting import EnergyLedger
from repro.experiments.figures import fig10_temporal
from repro.experiments.placement import aware_boundaries, profile_reductions
from repro.sim.results import (
    IntervalStats, RecoveryStats, RunResult, StatsTable, _typed_fields,
)
from repro.util.validation import field_names

nonneg = st.integers(min_value=0, max_value=2**40)
#: Fractional floats, integral floats (``3.0``) and ints where a float
#: is declared, as a decoded cache entry may hold all three.
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
rows = st.tuples(st.lists(intervals, max_size=60),
                 st.lists(recoveries, max_size=60))


def _result(ivs, recs) -> RunResult:
    return RunResult(
        label="bt/ReCkpt_NE", scheme="global", acr=True, num_cores=2,
        wall_ns=1e9, per_core_useful_ns=[9e8, 8e8],
        per_core_overhead_ns=[1e8, 2e8],
        energy=EnergyLedger.from_dict({"core.alu": 10.0}),
        intervals=StatsTable.from_rows(IntervalStats, ivs),
        recoveries=StatsTable.from_rows(RecoveryStats, recs),
        instructions=1, alu_ops=1, loads=0, stores=0, assoc_ops=0,
        l1d_accesses=0, l2_accesses=0, memory_accesses=0, writebacks=0,
        compile_stats=None, addrmap_records=0, addrmap_rejections=0,
        omissions=0, omission_lookups=0,
    )


def _both_forms(ivs, recs):
    """The run built from rows, and the same run after a JSON round trip
    through the columnar payload."""
    built = _result(ivs, recs)
    decoded = RunResult.from_payload(json.loads(json.dumps(built.to_payload())))
    return built, decoded


def _same(got, want) -> None:
    assert got == want
    assert repr(got) == repr(want)


class _OneRun:
    """A runner stand-in that answers every request with ``run``."""

    def __init__(self, run):
        self.result = run

    def run(self, workload, request):
        return self.result


# ------------------------------------------------------------- aggregates
class TestAggregatesMatchRowReference:
    @given(data=rows)
    @settings(max_examples=80, deadline=None)
    def test_run_aggregates(self, data):
        ivs, recs = data
        for run in _both_forms(ivs, recs):
            _same(run.checkpoint_count, len(ivs))
            _same(run.recovery_count, len(recs))
            _same(run.total_checkpoint_bytes,
                  sum(iv.logged_bytes for iv in ivs))
            _same(run.total_baseline_checkpoint_bytes,
                  sum(iv.baseline_bytes for iv in ivs))
            _same(run.max_checkpoint_bytes,
                  max((iv.logged_bytes for iv in ivs), default=0))
            _same(run.checkpoint_time_ns,
                  sum(iv.boundary_ns for iv in ivs))
            _same(run.recovery_time_ns, sum(r.total_ns for r in recs))
            _same(run.interval_reductions(), [iv.reduction for iv in ivs])

    @given(data=rows)
    @settings(max_examples=60, deadline=None)
    def test_figure_and_placement_readers(self, data):
        ivs, recs = data
        for run in _both_forms(ivs, recs):
            fig = fig10_temporal(_OneRun(run), thresholds=(10, 20))
            _same(fig.series["thr10"], [iv.reduction for iv in ivs])
            _same(profile_reductions(run), [iv.reduction for iv in ivs])
            if ivs:
                plan = aware_boundaries(run, num_checkpoints=1)
                _same(plan.profile_grid, [iv.useful_ns for iv in ivs])
                _same(plan.profile_reduction, [iv.reduction for iv in ivs])

    @given(data=rows, every_k=st.integers(min_value=1, max_value=7))
    @settings(max_examples=60, deadline=None)
    def test_analysis_readers(self, data, every_k):
        ivs, recs = data
        for run in _both_forms(ivs, recs):
            fs = full_snapshot_costs(run)
            sizes = [iv.footprint_bytes for iv in ivs]
            _same(fs.total_bytes, sum(sizes))
            _same(fs.max_bytes, max(sizes, default=0))
            drained = drained_bytes = pending = 0
            for iv in ivs:
                pending += iv.logged_bytes
                if (iv.index + 1) % every_k == 0:
                    drained_bytes += pending
                    drained += 1
                    pending = 0
            hc = hierarchical_costs(run, HierarchicalConfig(every_k=every_k))
            _same(hc.drained_checkpoints, drained)
            _same(hc.drained_bytes, drained_bytes)
            _same(decompose_overhead(run).boundary_ns,
                  sum(iv.boundary_ns for iv in ivs))
            anatomy = recovery_anatomy(run)
            for name in ("waste_ns", "rollback_ns", "recompute_ns",
                         "restored_records", "recomputed_values"):
                _same(getattr(anatomy, name),
                      sum(getattr(r, name) for r in recs))


# ------------------------------------------------------------ row views
class TestRowViews:
    @given(data=rows)
    @settings(max_examples=60, deadline=None)
    def test_to_dict_is_the_row_form(self, data):
        ivs, recs = data
        for run in _both_forms(ivs, recs):
            doc = run.to_dict()
            assert json.dumps(doc["intervals"]) == json.dumps(
                [iv.to_dict() for iv in ivs])
            assert json.dumps(doc["recoveries"]) == json.dumps(
                [r.to_dict() for r in recs])

    @given(data=rows)
    @settings(max_examples=60, deadline=None)
    def test_iteration_and_indexing_build_rows(self, data):
        ivs, recs = data
        for run in _both_forms(ivs, recs):
            for table, want, cls in ((run.intervals, ivs, IntervalStats),
                                     (run.recoveries, recs, RecoveryStats)):
                assert len(table) == len(want)
                assert bool(table) == bool(want)
                assert list(table) == want
                for i, row in enumerate(want):
                    assert table[i] == row == cls(*(
                        table.column(name)[i] for name in field_names(cls)))
                    assert table[i - len(want)] == row
                assert list(table[1:]) == want[1:]

    def test_columns_are_typed_values_in_row_order(self):
        ivs = [IntervalStats(i, 1.5 * i, 1, 0, 16, 0, 0, 2.0, 1, 64)
               for i in range(3)]
        table = StatsTable.from_rows(IntervalStats, ivs)
        assert table.column("index") == (0, 1, 2)
        assert table.column("useful_ns") == (0.0, 1.5, 3.0)
        with pytest.raises(ValueError):
            table.column("bogus")

    @pytest.mark.parametrize("row_type", [IntervalStats, RecoveryStats])
    def test_every_row_field_is_a_typed_scalar(self, row_type):
        # ``StatsTable.from_columns`` decodes exactly these columns.
        typed = _typed_fields(row_type)
        assert tuple(name for name, _, _ in typed) == field_names(row_type)
        assert not any(is_list for _, is_list, _ in typed)

    def test_plain_tuple_rows_make_the_same_table(self):
        ivs = [IntervalStats(i, 1.5 * i, 1, 0, 16, 0, 0, 2.0, 1, 64)
               for i in range(3)]
        rows = [tuple(getattr(iv, name) for name in field_names(IntervalStats))
                for iv in ivs]
        for n in (0, 1, 3):
            assert (StatsTable.from_tuples(IntervalStats, rows[:n])
                    == StatsTable.from_rows(IntervalStats, ivs[:n]))
        assert len(StatsTable.from_tuples(IntervalStats, [])) == 0

    def test_rows_are_not_retained(self):
        table = StatsTable.from_rows(
            IntervalStats, [IntervalStats(0, 1.0, 1, 0, 16, 0, 0, 2.0, 1)])
        assert table[0] is not table[0]
        assert table == StatsTable.from_rows(IntervalStats, list(table))

    def test_tables_compare_by_row_type_and_columns(self):
        iv = IntervalStats(0, 1.0, 1, 0, 16, 0, 0, 2.0, 1)
        a = StatsTable.from_rows(IntervalStats, [iv])
        assert a == StatsTable.from_rows(IntervalStats, [iv])
        assert a != StatsTable.from_rows(IntervalStats, [iv, iv])
        assert (StatsTable.from_rows(IntervalStats, [])
                != StatsTable.from_rows(RecoveryStats, []))

    def test_list_of_rows_becomes_a_table(self):
        iv = IntervalStats(0, 1.0, 1, 0, 16, 0, 0, 2.0, 1)
        run = _result([], [])
        assert run.intervals == StatsTable.from_rows(IntervalStats, [])
        rebuilt = RunResult(**{**vars(run), "intervals": [iv]})
        assert rebuilt.intervals == StatsTable.from_rows(IntervalStats, [iv])
