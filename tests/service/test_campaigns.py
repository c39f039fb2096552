"""Campaign specs and the deterministic report: strict wire inverses,
implicit baselines, and byte-identical reports across execution paths."""

import json

import pytest

from repro.experiments.configs import ConfigRequest
from repro.experiments.runner import ExperimentRunner
from repro.service.campaigns import (
    CampaignSpec,
    campaign_report,
    render_report,
)

_SHAPE = dict(num_cores=2, region_scale=0.05, reps=2)


def _spec(**overrides):
    kwargs = dict(
        workloads=("is",), configs=("Ckpt_NE",), **_SHAPE
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


def _runner(**kw):
    return ExperimentRunner(
        num_cores=2, region_scale=0.05, reps=2, **kw
    )


class TestSpecValidation:
    def test_lists_coerce_to_tuples(self):
        spec = _spec(workloads=["is"], configs=["Ckpt_NE", "ReCkpt_E"])
        assert spec.workloads == ("is",)
        assert spec.configs == ("Ckpt_NE", "ReCkpt_E")

    def test_empty_workloads_rejected(self):
        with pytest.raises(ValueError, match="workload"):
            _spec(workloads=())

    def test_empty_configs_rejected(self):
        with pytest.raises(ValueError, match="configuration"):
            _spec(configs=())

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            _spec(workloads=("spectre",))

    def test_unknown_config_rejected(self):
        with pytest.raises(ValueError, match="unknown configuration"):
            _spec(configs=("TurboCkpt",))

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            _spec(engine="jit")

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="memory_seed"):
            _spec(memory_seed=-1)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match="num_cores"):
            _spec(num_cores=0)


class TestSpecWire:
    def test_round_trip_is_identity(self):
        spec = _spec(configs=("Ckpt_NE", "ReCkpt_E"), threshold=7)
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_to_dict_is_json_safe(self):
        doc = json.loads(json.dumps(_spec().to_dict()))
        assert CampaignSpec.from_dict(doc) == _spec()

    def test_missing_field_rejected(self):
        doc = _spec().to_dict()
        del doc["engine"]
        with pytest.raises(ValueError, match="fields"):
            CampaignSpec.from_dict(doc)

    def test_extra_field_rejected(self):
        doc = _spec().to_dict()
        doc["color"] = "red"
        with pytest.raises(ValueError, match="fields"):
            CampaignSpec.from_dict(doc)

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="object"):
            CampaignSpec.from_dict("a string")

    def test_non_string_workloads_rejected(self):
        doc = _spec().to_dict()
        doc["workloads"] = [1, 2]
        with pytest.raises(ValueError, match="string list"):
            CampaignSpec.from_dict(doc)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("reps", "3"),
            ("reps", -1),
            ("reps", 0),
            ("reps", True),
            ("threshold", 2.5),
            ("threshold", 0),
            ("num_checkpoints", 1.5),
            ("num_cores", True),
            ("num_cores", "8"),
            ("error_count", None),
            ("memory_seed", True),
            ("memory_seed", 1.0),
            ("region_scale", "x"),
            ("region_scale", True),
            ("region_scale", 0.0),
            ("region_scale", float("nan")),
            ("region_scale", None),
        ],
    )
    def test_wrongly_typed_field_is_a_value_error(self, field, value):
        doc = _spec().to_dict()
        doc[field] = value
        with pytest.raises(ValueError, match=field):
            CampaignSpec.from_dict(doc)

    @pytest.mark.parametrize(
        "field, value",
        [("reps", None), ("threshold", None), ("threshold", 3),
         ("region_scale", 1), ("memory_seed", 0)],
    )
    def test_valid_field_values_still_decode(self, field, value):
        doc = _spec().to_dict()
        doc[field] = value
        assert getattr(CampaignSpec.from_dict(doc), field) == value


class TestPlan:
    def test_pairs_include_the_implicit_baseline(self):
        runner = _runner()
        pairs = _spec().pairs(runner)
        assert ("is", ConfigRequest("NoCkpt")) in pairs
        assert len(pairs) == 2  # NoCkpt + Ckpt_NE

    def test_requesting_nockpt_does_not_duplicate_it(self):
        runner = _runner()
        pairs = _spec(configs=("NoCkpt", "Ckpt_NE")).pairs(runner)
        assert len(pairs) == 2

    def test_default_threshold_is_per_workload(self):
        runner = _runner()
        for wl, req in _spec().pairs(runner):
            if not req.is_baseline:
                assert req.threshold == runner.default_threshold(wl)

    def test_keys_match_pairs(self):
        runner = _runner()
        spec = _spec()
        assert spec.keys(runner) == [
            runner.cache_key(wl, req) for wl, req in spec.pairs(runner)
        ]


class TestReport:
    def test_report_is_deterministic_across_runners(self, tmp_path):
        spec = _spec()
        a = campaign_report(_runner(), spec)
        b = campaign_report(_runner(cache_dir=tmp_path / "cache"), spec)
        assert json.dumps(a, sort_keys=True) == json.dumps(
            b, sort_keys=True
        )

    def test_report_shape_and_digest(self):
        spec = _spec()
        report = campaign_report(_runner(), spec)
        assert report["v"] == 1
        assert report["campaign"] == spec.to_dict()
        assert [r["config"] for r in report["runs"]] == [
            "Ckpt_NE", "NoCkpt",  # sorted by (workload, config)
        ]
        baseline = next(
            r for r in report["runs"] if r["config"] == "NoCkpt"
        )
        assert baseline["time_overhead"] == 0.0
        assert baseline["checkpoint_bytes"] == 0
        ckpt = next(r for r in report["runs"] if r["config"] == "Ckpt_NE")
        assert ckpt["time_overhead"] > 0.0
        assert len(report["sha256"]) == 64
        assert json.loads(json.dumps(report)) == report

    def test_render_mentions_every_run_and_the_digest(self):
        report = campaign_report(_runner(), _spec())
        text = render_report(report)
        assert "Ckpt_NE" in text and "NoCkpt" in text
        assert report["sha256"][:16] in text
