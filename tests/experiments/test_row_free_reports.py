"""A warm report reads statistics columns and builds no row objects, reads
each cache entry with one open and one parse, and the runner that served
it is freed by reference counting alone.

The first test counts ``IntervalStats``/``RecoveryStats`` constructions
through a patched ``__init__`` while the whole paper report is rebuilt
from a warm cache, and checks the rebuilt artifacts against the cold
ones file for file.  The second counts the warm path's work instead of
timing it: every file opened (an audit hook) and every ``json.loads``.
The third disables the cycle collector: a runner
that ends up in a reference cycle (its cache's quarantine callback
once closed over the runner) would outlive its last reference.
"""

import gc
import io
import json
import os
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest

from repro.experiments.report import generate_report
from repro.experiments.runner import ExperimentRunner
from repro.sim.results import IntervalStats, RecoveryStats
from repro.sim.simulator import Simulator

#: Every path opened while a test records (an audit hook cannot be
#: removed, so one hook, installed once, appends only while asked to).
_OPENED = []
_RECORDING = []


def _audit(event, args):
    # ``open`` of a file descriptor passes an int: not a path to count.
    if _RECORDING and event == "open" and not isinstance(args[0], int):
        _OPENED.append(os.path.normpath(os.fsdecode(args[0])))


def _record_opens():
    if not hasattr(_audit, "installed"):
        sys.addaudithook(_audit)
        _audit.installed = True
    _OPENED.clear()
    _RECORDING.append(True)


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


class TestWarmHitWork:
    def test_one_open_and_one_parse_per_entry(self, warm_cache, tmp_path,
                                              monkeypatch):
        cache = warm_cache / "cache"
        entries = sorted(os.path.normpath(p) for p in cache.glob("*/*.json"))
        assert len(entries) == 217
        parsed = []

        def counting_loads(text, *args, _loads=json.loads, **kw):
            parsed.append(text)
            return _loads(text, *args, **kw)

        def no_simulation(*args, **kw):
            raise AssertionError("a warm report simulated a run")

        monkeypatch.setattr(json, "loads", counting_loads)
        monkeypatch.setattr(Simulator, "run", no_simulation)
        runner = _runner(cache)
        _record_opens()
        try:
            generate_report(runner, stream=io.StringIO(), out_dir=tmp_path)
        finally:
            _RECORDING.clear()
        assert runner.progress.simulated == 0
        in_cache = Counter(p for p in _OPENED
                           if p.startswith(os.path.normpath(cache)))
        assert in_cache == Counter(entries)
        assert len(parsed) == len(entries)
        assert not list(cache.glob("*/*.lock"))


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
