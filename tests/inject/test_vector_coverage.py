"""Certificates strictly raise vector coverage — without changing results.

The acceptance contract for the static certifier (ACR009–ACR012): on
taint-carrying trials the vector engine replays strictly more
iterations with certificates on than off (the PR 6 baseline), every
remaining fallback carries a known rule id, and the trial outcome is
bit-identical either way — the certificate only widens replay, never
changes a result.
"""

from __future__ import annotations

import pytest

from repro.inject.harness import TrialSpec, run_trial
from repro.obs.metrics import MetricsRegistry
from repro.sim.vector.interp import VectorInterpreter
from repro.verify import RULES

# Reasons the runtime may legitimately report: a certificate-denial
# rule id, or the observed-loads marker when a load observer forces the
# classic loop.  Anything else is a certifier soundness gap.
KNOWN_REASONS = frozenset(RULES) | {"observed-loads"}


def _run(workload: str, use_certs: bool, monkeypatch):
    monkeypatch.setattr(VectorInterpreter, "use_certificates", use_certs)
    metrics = MetricsRegistry()
    spec = TrialSpec(workload=workload, config="ACR", target="arch", seed=1)
    result = run_trial(spec, metrics=metrics, engine="vector")
    counters = metrics.counters_dict()
    reasons = {
        name.removeprefix("vector.fallback."): count
        for name, count in counters.items()
        if name.startswith("vector.fallback.") and count
    }
    return (
        result.to_dict(),
        counters.get("vector.replayed_iterations", 0),
        counters.get("vector.fallback_iterations", 0),
        reasons,
    )


class TestCertificateCoverage:
    # An ``arch`` injection taints a live register, which without a
    # renewal certificate forces the faulty pass off the replay path
    # for the rest of the tainted kernel (ACR011).
    @pytest.mark.parametrize("workload", ["bt", "dc", "ft"])
    def test_coverage_strictly_increases(self, workload, monkeypatch):
        doc_off, replayed_off, fallback_off, _ = _run(
            workload, False, monkeypatch
        )
        doc_on, replayed_on, fallback_on, _ = _run(workload, True, monkeypatch)
        assert doc_on == doc_off  # bit-identical trial outcome
        assert fallback_off > 0  # the taint actually bites certs-off
        assert replayed_on > replayed_off
        assert fallback_on < fallback_off

    @pytest.mark.parametrize("use_certs", [False, True])
    def test_every_fallback_has_a_known_reason(self, use_certs, monkeypatch):
        _, replayed, fallback, reasons = _run("bt", use_certs, monkeypatch)
        assert replayed > 0
        assert sum(reasons.values()) == fallback
        assert set(reasons) <= KNOWN_REASONS


class TestRenewalFromTheBodyAlone:
    """A tainted kernel's renewal flag comes from its own body, once per
    interpreter: no program summary, no footprints."""

    def test_trial_never_summarizes(self, monkeypatch):
        import repro.verify.absint.certify as certify

        def refuse(*args):
            raise AssertionError("summarized during a vector trial")

        calls = []
        renewed = certify.registers_renewed

        def counting(kernel):
            calls.append(kernel)
            return renewed(kernel)

        monkeypatch.setattr(certify, "summarize_kernel", refuse)
        monkeypatch.setattr(certify, "summarize_program", refuse)
        monkeypatch.setattr(certify, "registers_renewed", counting)
        _run("bt", True, monkeypatch)
        assert calls  # the arch injection tainted a kernel

    def test_flag_memoised_per_kernel(self, monkeypatch):
        import repro.verify.absint.certify as certify
        from repro.isa.interpreter import MemoryImage
        from repro.workloads import get_workload

        calls = []
        renewed = certify.registers_renewed
        monkeypatch.setattr(
            certify, "registers_renewed",
            lambda kernel: calls.append(kernel) or renewed(kernel),
        )
        program = get_workload("bt").build_programs(
            1, region_scale=0.05, reps=1
        )[0]
        interp = VectorInterpreter(program, MemoryImage(0))
        flags = [interp._regs_renewed(k) for k in (0, 1, 0, 1, 0)]
        assert flags[0::2] == [flags[0]] * 3
        assert calls == [program.kernels[0], program.kernels[1]]


class TestRunResultCoverageField:
    def test_simulator_reports_coverage(self):
        from repro.arch.config import MachineConfig
        from repro.experiments.configs import ConfigRequest, make_options
        from repro.sim.simulator import Simulator
        from repro.workloads import get_workload

        sim = Simulator(
            get_workload("bt").build_programs(2, region_scale=0.1, reps=4),
            MachineConfig(num_cores=2),
        )
        base = sim.run_baseline()
        result = sim.run(
            make_options(
                ConfigRequest("NoCkpt"), base.baseline_profile(), engine="vector"
            )
        )
        cov = result.vector_coverage
        assert cov is not None
        assert cov["replayed_iterations"] > 0
        # Diagnostics ride outside the serialised contract: the payload
        # round-trips without the field and stays engine-comparable.
        doc = result.to_dict()
        assert "vector_coverage" not in doc
        assert "vector_coverage" not in result.to_payload()
        restored = type(result).from_payload(result.to_payload())
        assert restored.vector_coverage is None
        assert restored.to_dict() == doc
