"""Chaos coverage for the campaign service's execution path: SIGKILL
every worker of a ``jobs=2`` fan-out mid-key — found through the claim
files over the shared disk cache (the one result store the daemon hands
its runners) — and assert the two headline contracts —

* **zero completed results lost**: every campaign key is servable from
  the cache afterwards;
* **bit-identical reports**: a campaign riddled with worker deaths
  produces a report byte-equal to an undisturbed solo runner's.
"""

import json
import signal

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.runner import ExperimentRunner
from repro.service.campaigns import CampaignSpec, campaign_report
from tests.resilience.chaos import signal_claim_owners

chaos = pytest.mark.skipif(
    not hasattr(signal, "SIGKILL"),
    reason="chaos tests need SIGKILL",
)

def _runner(**kw):
    return ExperimentRunner(num_cores=2, region_scale=0.05, reps=2, **kw)


@chaos
@pytest.mark.chaos
def test_whole_pool_sigkill_mid_campaign_report_bit_identical(tmp_path):
    spec = CampaignSpec(
        workloads=("is",), configs=("Ckpt_NE", "ReCkpt_E"),
        num_cores=2, region_scale=0.05, reps=2,
    )
    solo = campaign_report(_runner(), spec)

    cache = ResultCache(tmp_path / "cache")
    runner = _runner(jobs=2, cache=cache)
    # Kill the ENTIRE pool: two workers, each mid-key.
    with signal_claim_owners(cache.root, signal.SIGKILL, 2) as worker_kills:
        disturbed = campaign_report(runner, spec)
    assert len(worker_kills) == 2
    assert runner.progress.worker_deaths >= 1
    assert json.dumps(disturbed, sort_keys=True) == json.dumps(
        solo, sort_keys=True
    )
    # Zero completed results lost: every campaign key is servable.
    for key in spec.keys(runner):
        assert cache.load(key) is not None
