"""Property tests: the ``obs`` payload through serialisation and cache.

Mirrors ``tests/experiments/test_cache.py`` for the observability layer:
arbitrary metrics registries round-trip losslessly through
``RunResult.to_payload``/``from_payload`` and the persistent cache, and a
corrupt ``obs`` blob inside a cache entry degrades to a *miss* (with the
entry quarantined) — never a crash, never a half-built result.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.energy.accounting import EnergyLedger
from repro.experiments.cache import ResultCache
from repro.obs.metrics import MetricsRegistry, ObsReport
from repro.sim.results import RunResult

nonneg = st.integers(min_value=0, max_value=2**40)
nonneg_f = st.floats(
    min_value=0.0, max_value=1e18, allow_nan=False, allow_infinity=False
)
metric_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz._", min_size=1, max_size=20
)


@st.composite
def metrics_registries(draw):
    reg = MetricsRegistry()
    for name, value in draw(
        st.dictionaries(metric_names, nonneg, max_size=6)
    ).items():
        reg.counter(name).inc(value)
    for name, values in draw(
        st.dictionaries(
            metric_names, st.lists(nonneg_f, max_size=8), max_size=4
        )
    ).items():
        h = reg.histogram(name)
        for v in values:
            h.observe(v)
    for index in range(draw(st.integers(min_value=0, max_value=3))):
        reg.snapshot_interval(index)
    return reg


obs_reports = st.builds(
    ObsReport,
    metrics=metrics_registries(),
    events_captured=nonneg,
    events_dropped=nonneg,
)

KEY = "cd" * 32


def result_with_obs(obs):
    return RunResult(
        label="ReCkpt_E",
        scheme="global",
        acr=True,
        num_cores=2,
        wall_ns=100.0,
        per_core_useful_ns=[90.0, 80.0],
        per_core_overhead_ns=[10.0, 5.0],
        energy=EnergyLedger.from_dict({"core.alu": 10.0}),
        intervals=[],
        recoveries=[],
        instructions=1000,
        alu_ops=600,
        loads=200,
        stores=200,
        assoc_ops=10,
        l1d_accesses=400,
        l2_accesses=40,
        memory_accesses=4,
        writebacks=2,
        compile_stats=None,
        addrmap_records=5,
        addrmap_rejections=0,
        omissions=3,
        omission_lookups=9,
        obs=obs,
    )


class TestRoundTrip:
    @given(obs=st.none() | obs_reports)
    @settings(max_examples=50, deadline=None)
    def test_run_result_with_obs_round_trips_losslessly(self, obs):
        result = result_with_obs(obs)
        wire = json.dumps(result.to_payload(), sort_keys=True)
        rebuilt = RunResult.from_payload(json.loads(wire))
        assert rebuilt.to_dict() == result.to_dict()
        if obs is None:
            assert rebuilt.obs is None
        else:
            assert rebuilt.obs is not None
            assert rebuilt.obs.to_dict() == obs.to_dict()

    @given(obs=obs_reports)
    @settings(max_examples=30, deadline=None)
    def test_obs_report_json_round_trip(self, obs):
        rebuilt = ObsReport.from_dict(json.loads(json.dumps(obs.to_dict())))
        assert rebuilt.to_dict() == obs.to_dict()

    @given(obs=st.none() | obs_reports)
    @settings(max_examples=20, deadline=None)
    def test_store_load_through_cache(self, tmp_path_factory, obs):
        cache = ResultCache(tmp_path_factory.mktemp("cache"))
        cache.store(KEY, result_with_obs(obs))
        loaded = cache.load(KEY)
        assert loaded is not None
        assert loaded.equivalent(result_with_obs(obs))


class TestStrictObsField:
    def test_missing_obs_key_rejected(self):
        doc = result_with_obs(None).to_payload()
        del doc["obs"]
        with pytest.raises(ValueError):
            RunResult.from_payload(doc)

    @pytest.mark.parametrize("blob", [
        [1, 2, 3],
        "garbage",
        {"metrics": {}, "events_captured": 1},        # missing key
        {"metrics": {"counters": {}, "histograms": {}, "intervals": []},
         "events_captured": -1, "events_dropped": 0},  # negative count
        {"metrics": {"counters": {"c": "NaN"}, "histograms": {},
         "intervals": []}, "events_captured": 0, "events_dropped": 0},
    ])
    def test_corrupt_obs_blob_rejected(self, blob):
        doc = result_with_obs(None).to_payload()
        doc["obs"] = blob
        with pytest.raises(ValueError):
            RunResult.from_payload(doc)


class TestCorruptObsInCache:
    def _poison(self, cache, mutate):
        path = cache.path_for(KEY)
        envelope = json.loads(path.read_text())
        mutate(envelope["result"])
        path.write_text(json.dumps(envelope))
        return path

    @pytest.mark.parametrize("mutate", [
        lambda r: r.__setitem__("obs", [1]),
        lambda r: r.__setitem__("obs", {"metrics": "?"}),
        lambda r: r.pop("obs"),
        lambda r: r["obs"]["metrics"].pop("counters"),
        lambda r: r["obs"].__setitem__("events_dropped", "lots"),
    ])
    def test_corrupt_obs_is_a_miss_and_quarantined(self, tmp_path, mutate):
        cache = ResultCache(tmp_path / "cache")
        reg = MetricsRegistry()
        reg.counter("ckpt.count").inc(5)
        cache.store(KEY, result_with_obs(ObsReport(metrics=reg)))
        path = self._poison(cache, mutate)
        assert cache.load(KEY) is None  # miss, not a crash
        assert not path.exists()  # quarantined for a clean rewrite
