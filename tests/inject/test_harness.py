"""Tests for repro.inject.harness — one trial, end to end.

The load-bearing claims: every injection target recovers bit-exactly
under both configurations, the trial is a pure function of its spec, and
the provenance (what was flipped, where, when) is fully populated.
"""

import pytest

from repro.inject.harness import (
    CONFIGS,
    OUTCOMES,
    TARGET_KINDS,
    TrialResult,
    TrialSpec,
    run_trial,
)
from repro.obs.tracer import RecordingTracer


def trial(workload="cg", **kw):
    kw.setdefault("memory_seed", kw.get("seed", 0))
    return run_trial(TrialSpec(workload=workload, **kw))


class TestSpecValidation:
    def test_unknown_config_rejected(self):
        with pytest.raises(ValueError):
            TrialSpec(workload="cg", config="Ckpt_E")

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError):
            TrialSpec(workload="cg", target="cache")

    def test_unknown_defect_rejected(self):
        with pytest.raises(ValueError):
            TrialSpec(workload="cg", defect="drop-everything")

    def test_latency_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            TrialSpec(workload="cg", detection_latency_fraction=1.5)

    def test_unknown_workload_fails_at_run(self):
        with pytest.raises(KeyError):
            run_trial(TrialSpec(workload="nosuch"))

    def test_roundtrip(self):
        spec = TrialSpec(workload="dc", config="BER", seed=9, target="arch")
        assert TrialSpec.from_dict(spec.to_dict()) == spec

    def test_canonical_key_distinguishes_every_field(self):
        a = TrialSpec(workload="cg", seed=1)
        b = TrialSpec(workload="cg", seed=2)
        assert a.canonical_key() != b.canonical_key()
        assert a.canonical_key() == TrialSpec(
            workload="cg", seed=1
        ).canonical_key()


class TestBitExactRecovery:
    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("target", TARGET_KINDS)
    def test_recovers_exactly(self, config, target):
        for seed in range(3):
            r = trial(config=config, target=target, seed=seed)
            assert r.outcome == "recovered-exact"
            assert r.divergence_count == 0
            assert r.divergences == ()
            assert r.recovered_exactly

    def test_across_workloads(self):
        for wl in ("bt", "dc", "ft", "is", "lu", "mg", "sp"):
            r = trial(workload=wl, config="ACR", seed=4)
            assert r.outcome == "recovered-exact", wl

    def test_addresses_actually_compared(self):
        r = trial()
        assert r.addresses_checked > 0
        assert r.steps > 0
        assert r.checkpoints >= 0


class TestEccAtLookup:
    # The injector damages a committed AddrMap entry's operand snapshot;
    # the handler's lookup ECC must refuse that entry when a first write
    # asks for it, so the store logs normally and no corrupt Slice ever
    # recomputes.  Without the refusal these seeds diverge.
    @pytest.mark.parametrize("snapshots", [False, True],
                             ids=["straight", "forked"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_damaged_entry_refused(self, seed, snapshots):
        spec = TrialSpec("cg", config="ACR", seed=seed, target="addrmap")
        r = run_trial(spec, snapshots=snapshots)
        assert r.injection.kind == "addrmap"
        assert r.ecc_lookup_hits == 1
        assert r.outcome == "recovered-exact"


class TestProvenance:
    def test_injection_fully_populated(self):
        r = trial(target="mem", seed=0)
        inj = r.injection
        assert inj.requested == "mem"
        assert inj.kind in TARGET_KINDS
        assert 1 <= inj.step == r.injection_step < r.steps
        assert 0 <= inj.bit < 64
        assert inj.before != inj.after
        # mem flips name an address; arch flips name a register.
        if inj.kind == "arch":
            assert inj.register >= 0 and inj.address == -1
        else:
            assert inj.address >= 0 and inj.register == -1

    def test_timeline_ordering(self):
        r = trial(seed=5)
        assert 0.0 < r.occurred < r.detected <= r.steps / 4
        assert r.injection_step < r.detection_step <= r.steps
        assert -1 <= r.safe_checkpoint < r.checkpoints

    def test_fallback_records_requested_kind(self):
        # Early injections (before any checkpoint) can't hit retained
        # logs or committed AddrMap entries; the fallback chain must
        # still record what the campaign asked for.
        for seed in range(8):
            r = trial(target="log", config="BER", seed=seed)
            assert r.injection.requested == "log"
            assert r.injection.kind in ("log", "mem", "arch")

    def test_acr_recomputes_sometimes(self):
        # At least one of these seeds rolls back through omitted records.
        recomputed = sum(
            trial(config="ACR", seed=s).recomputed_values for s in range(6)
        )
        assert recomputed > 0

    def test_ber_never_recomputes(self):
        for s in range(6):
            assert trial(config="BER", seed=s).recomputed_values == 0


class TestDeterminism:
    def test_same_spec_same_result(self):
        spec = TrialSpec(workload="dc", config="ACR", seed=3, memory_seed=3)
        assert run_trial(spec).to_dict() == run_trial(spec).to_dict()

    def test_seed_changes_injection(self):
        a = trial(seed=0)
        b = trial(seed=1)
        assert (a.injection_step, a.injection.bit) != (
            b.injection_step, b.injection.bit,
        )


class TestResultSerialisation:
    def test_roundtrip(self):
        r = trial(config="ACR", target="addrmap", seed=0)
        assert TrialResult.from_dict(r.to_dict()) == r

    def test_missing_field_rejected(self):
        doc = trial().to_dict()
        doc.pop("outcome")
        with pytest.raises(ValueError):
            TrialResult.from_dict(doc)

    def test_extra_field_rejected(self):
        doc = trial().to_dict()
        doc["bonus"] = 1
        with pytest.raises(ValueError):
            TrialResult.from_dict(doc)

    def test_bad_outcome_rejected(self):
        doc = trial().to_dict()
        doc["outcome"] = "mostly-fine"
        assert "mostly-fine" not in OUTCOMES
        with pytest.raises(ValueError):
            TrialResult.from_dict(doc)

    def test_diverged_without_divergences_rejected(self):
        doc = trial().to_dict()
        doc["outcome"] = "diverged"  # but divergence_count stays 0
        with pytest.raises(ValueError):
            TrialResult.from_dict(doc)

    def test_boolean_masquerading_as_count_rejected(self):
        doc = trial().to_dict()
        doc["checkpoints"] = True
        with pytest.raises(ValueError):
            TrialResult.from_dict(doc)


class TestObservability:
    def test_events_and_metrics_emitted(self):
        tracer = RecordingTracer()
        spec = TrialSpec(workload="cg", seed=0)
        result = run_trial(spec, tracer=tracer)
        names = [e.name for e in tracer.events]
        assert names.count("fault_injected") == 1
        assert ("recovery_verified" in names) == (
            result.outcome == "recovered-exact"
        )
        [fault] = [e for e in tracer.events if e.name == "fault_injected"]
        assert fault.target == result.injection.kind
