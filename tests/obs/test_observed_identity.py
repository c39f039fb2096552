"""Observing a run does not change it.

With a tracer and a metrics registry attached, every configuration's
``RunResult`` payload, the obs report set aside, equals the unobserved
run's, on either engine.  (An observed run requested on the vector
engine runs the timed steppers; its payload must still match the
replayed one.)
"""

from __future__ import annotations

import pytest

from repro.arch.config import MachineConfig
from repro.experiments.configs import CONFIG_NAMES, ConfigRequest, make_options
from repro.obs.tracer import RecordingTracer
from repro.sim.simulator import ENGINES, Simulator
from repro.workloads.registry import get_workload


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("workload", ("cg", "is"))
def test_observed_payload_equals_unobserved(workload, engine):
    spec = get_workload(workload)
    sim = Simulator(spec.build_programs(2, region_scale=0.05, reps=2),
                    MachineConfig(num_cores=2))
    baseline = None
    for name in CONFIG_NAMES:
        request = ConfigRequest(
            name, num_checkpoints=4, threshold=spec.default_threshold
        )
        plain = sim.run(make_options(request, baseline, engine=engine))
        tracer = RecordingTracer()
        observed = sim.run(make_options(
            request, baseline, engine=engine, tracer=tracer,
            collect_metrics=True,
        ))
        unobserved_doc, observed_doc = plain.to_payload(), observed.to_payload()
        assert unobserved_doc.pop("obs") is None
        assert observed_doc.pop("obs") is not None
        assert tracer.captured > 0 or request.is_baseline
        assert observed_doc == unobserved_doc, f"{workload}/{name} on {engine}"
        if request.is_baseline:
            baseline = plain.baseline_profile()
