"""A warm report reads statistics columns and builds no row objects, and
the runner that served it is freed by reference counting alone.

The first test counts ``IntervalStats``/``RecoveryStats`` constructions
through a patched ``__init__`` while the whole paper report is rebuilt
from a warm cache, and checks the rebuilt artifacts against the cold
ones file for file.  The second disables the cycle collector: a runner
that ends up in a reference cycle (its cache's quarantine callback
once closed over the runner) would outlive its last reference.
"""

import gc
import io
import weakref
from pathlib import Path

import pytest

from repro.experiments.report import generate_report
from repro.experiments.runner import ExperimentRunner
from repro.sim.results import IntervalStats, RecoveryStats


def _runner(cache: Path) -> ExperimentRunner:
    return ExperimentRunner(num_cores=2, region_scale=0.01, reps=1,
                            engine="vector", cache_dir=cache)


def _artifacts(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.name != "run_summary.txt"}


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    """A cache holding the whole report matrix, and the cold artifacts."""
    root = tmp_path_factory.mktemp("report")
    generate_report(_runner(root / "cache"), stream=io.StringIO(),
                    out_dir=root / "cold")
    return root


class TestWarmReportBuildsNoRows:
    def test_zero_rows_and_identical_artifacts(self, warm_cache, tmp_path,
                                               monkeypatch):
        built = {IntervalStats: 0, RecoveryStats: 0}
        for cls in built:
            def counting(self, *args, _cls=cls, _init=cls.__init__, **kw):
                built[_cls] += 1
                _init(self, *args, **kw)
            monkeypatch.setattr(cls, "__init__", counting)

        runner = _runner(warm_cache / "cache")
        generate_report(runner, stream=io.StringIO(), out_dir=tmp_path)
        assert runner.progress.simulated == 0
        assert built == {IntervalStats: 0, RecoveryStats: 0}
        cold = _artifacts(warm_cache / "cold")
        assert len(cold) > 10
        assert _artifacts(tmp_path) == cold


class TestDroppedRunnerIsFreedByRefcount:
    def test_warm_runner_leaves_no_cyclic_garbage(self, warm_cache, tmp_path):
        gc.collect()
        gc.disable()
        try:
            runner = _runner(warm_cache / "cache")
            generate_report(runner, stream=io.StringIO(), out_dir=tmp_path)
            assert runner.progress.simulated == 0
            assert runner.cache is not None
            ref = weakref.ref(runner)
            del runner
            assert ref() is None, "runner kept alive by a reference cycle"
        finally:
            gc.enable()
