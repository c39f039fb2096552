"""The ``--jobs N`` fan-out end to end: the CI smoke jobs, in tier-1.

Each class holds one CI job's assertions with that job's data:

* ``chaos-smoke`` — an ``inject --jobs 2`` campaign resumed from its
  journal reports byte-identically and credits all four trials;
* ``cached-parallel-smoke`` — a ``jobs=4`` cold pass is simulated by the
  workers, a warm pass simulates nothing and renders the same figure;
  a warm full report reads every entry back, a dropped warm runner is
  freed by refcount alone, and a wrong-typed cached value is
  quarantined and re-simulated once;
* ``monitor-smoke`` — ``--live --jobs 2`` on a dumb terminal streams
  frames, its snapshot stream lints clean and replays;
* ``service-smoke`` — a ``serve --jobs 2`` daemon simulates each unique
  key once for two concurrent clients, a restarted daemon simulates
  nothing, and two concurrent ``--solo --jobs 2`` runners leave one
  journal record per cache entry.

Plus ``--jobs 1`` against ``--jobs 2`` byte identity for ``report`` and
``inject``.
"""

from __future__ import annotations

import filecmp
import gc
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import weakref
from collections import Counter
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.figures import fig6_time_overhead
from repro.experiments.report import generate_report, paper_run_matrix
from repro.experiments.runner import ExperimentRunner
from repro.obs import lint
from repro.service import CampaignClient, wait_for_socket

_SRC = str(Path(__file__).resolve().parents[1] / "src")

#: ``report`` at the CI's cheapest full-matrix setting.
_REPORT = ["report", "--cores", "2", "--scale", "0.01", "--reps", "1",
           "--engine", "vector"]


def _same_tree(a: Path, b: Path) -> bool:
    """``diff -r -x run_summary.txt a b`` is clean."""
    names = sorted(p.name for p in a.iterdir() if p.name != "run_summary.txt")
    assert names == sorted(
        p.name for p in b.iterdir() if p.name != "run_summary.txt"
    )
    _match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return not mismatch and not errors


class TestChaosSmoke:
    def test_interrupted_campaign_resumes_bit_identically(
        self, tmp_path, capsys
    ):
        cache = str(tmp_path / "cache")
        cold, resumed = tmp_path / "cold.json", tmp_path / "resumed.json"
        main(["inject", "cg", "--trials", "2", "--jobs", "2",
              "--cache-dir", cache, "--json", str(cold)])
        capsys.readouterr()
        main(["inject", "cg", "--trials", "2", "--resume",
              "--cache-dir", cache, "--json", str(resumed)])
        assert "4 resumed from journal" in capsys.readouterr().out
        assert cold.read_bytes() == resumed.read_bytes()


class TestCachedParallelSmoke:
    def test_two_pass_cached_parallel_figure(self, tmp_path):
        def make_runner():
            return ExperimentRunner(
                num_cores=2, region_scale=0.1, reps=12,
                jobs=4, cache_dir=tmp_path / "smoke-cache",
            )

        def prefetch(runner):
            # Everything Fig. 6 touches, resolved through the workers.
            runner.run_many(
                [(wl, runner.default_request(wl, cfg))
                 for wl in runner.workloads()
                 for cfg in ("Ckpt_NE", "Ckpt_E", "ReCkpt_NE", "ReCkpt_E")]
            )

        cold = make_runner()
        prefetch(cold)
        first = fig6_time_overhead(cold).render()
        assert cold.progress.by_source()["worker"] > 0
        assert cold.progress.simulated > 0

        warm = make_runner()
        prefetch(warm)
        second = fig6_time_overhead(warm).render()
        assert warm.progress.simulated == 0, "second pass must not simulate"
        assert warm.progress.hit_rate >= 0.95
        assert second == first, "cached figure diverged"

    @pytest.fixture(scope="class")
    def report_cache(self, tmp_path_factory):
        """A full report's cache and its cold and warm artifacts."""
        root = tmp_path_factory.mktemp("report")
        for out in ("cold", "warm"):
            assert main(_REPORT + ["--cache-dir", str(root / "cache"),
                                   "--out", str(root / out)]) == 0
        return root

    @staticmethod
    def _runner(root):
        return ExperimentRunner(
            num_cores=2, region_scale=0.01, reps=1, engine="vector",
            cache_dir=root / "cache",
        )

    def test_warm_full_report_reads_every_entry_back(self, report_cache):
        assert _same_tree(report_cache / "cold", report_cache / "warm")
        runner = self._runner(report_cache)
        runner.run_many(paper_run_matrix(runner))
        assert runner.progress.simulated == 0, "warm cache re-simulated"
        assert runner.cache.quarantined == 0, "valid entries quarantined"

    def test_dropped_warm_runner_leaves_no_cyclic_garbage(self, report_cache):
        gc.collect()
        gc.disable()
        try:
            runner = self._runner(report_cache)
            generate_report(runner, stream=io.StringIO())
            assert runner.progress.simulated == 0, "warm cache re-simulated"
            ref = weakref.ref(runner)
            del runner
            assert ref() is None, "dropped runner is cyclic garbage"
        finally:
            gc.enable()

    def test_wrong_typed_cached_value_is_quarantined(
        self, report_cache, tmp_path, capsys
    ):
        root = tmp_path / "poisoned-root"
        shutil.copytree(report_cache / "cache", root / "cache")
        entry = next(
            p for p in sorted((root / "cache").glob("*/*.json"))
            if json.loads(p.read_text())["result"]["intervals"]["index"]
        )
        envelope = json.loads(entry.read_text())
        envelope["result"]["intervals"]["logged_bytes"][0] = "12"
        entry.write_text(json.dumps(envelope))

        runner = self._runner(root)
        runner.run_many(paper_run_matrix(runner))
        assert runner.cache.quarantined == 1, runner.cache.quarantined
        assert runner.progress.simulated == 1, runner.progress.simulated
        assert main(_REPORT + ["--cache-dir", str(root / "cache"),
                               "--out", str(root / "poisoned")]) == 0
        assert _same_tree(report_cache / "cold", root / "poisoned")


class TestMonitorSmoke:
    def test_live_parallel_campaign_on_a_dumb_terminal(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("TERM", "dumb")
        snapshots = tmp_path / "telemetry.jsonl"
        main(["inject", "cg", "--trials", "2", "--jobs", "2",
              "--cache-dir", str(tmp_path / "cache"), "--live",
              "--snapshots", str(snapshots)])
        live = capsys.readouterr().out
        assert "frames streamed" in live
        assert "campaign wall-clock attribution" in live
        assert snapshots.stat().st_size > 0
        assert lint.main([str(snapshots)]) == 0
        assert main(["monitor", "--replay", str(snapshots)]) == 0
        assert "replayed" in capsys.readouterr().out


_SUBMIT = ["submit", "is", "cg",
           "--configs", "Ckpt_NE,Ckpt_E,ReCkpt_NE,ReCkpt_E",
           "--scale", "0.1", "--reps", "12", "--cores", "2"]


def _cli(*argv):
    """``acr-repro ARGV`` as its own process (the CI's shell commands)."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv], env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def _finish(*procs):
    for proc in procs:
        assert proc.wait(timeout=300) == 0


class TestServiceSmoke:
    @pytest.fixture()
    def sock_dir(self):
        short = Path(tempfile.mkdtemp(prefix="acrs."))
        yield short
        shutil.rmtree(short, ignore_errors=True)

    def test_daemon_clients_restart_and_shared_solo_runners(
        self, tmp_path, sock_dir
    ):
        cache = str(tmp_path / "service-cache")
        out = {name: tmp_path / f"{name}.json" for name in (
            "client-a", "client-b", "solo", "restarted",
            "shared-a", "shared-b",
        )}
        # Daemon + two concurrent clients vs a solo runner (cmp x3).
        sock = sock_dir / "acr.sock"
        serve = _cli("serve", "--socket", str(sock), "--cache-dir", cache,
                     "--jobs", "2")
        try:
            assert wait_for_socket(sock, timeout_s=60.0)
            a = _cli(*_SUBMIT, "--socket", str(sock),
                     "--json", str(out["client-a"]))
            b = _cli(*_SUBMIT, "--socket", str(sock),
                     "--json", str(out["client-b"]))
            _finish(a, b)
            _finish(_cli(*_SUBMIT, "--solo",
                         "--cache-dir", str(tmp_path / "solo-cache"),
                         "--json", str(out["solo"])))
            report = out["client-a"].read_bytes()
            assert out["client-b"].read_bytes() == report
            assert out["solo"].read_bytes() == report
            keys = {run["key"] for run in json.loads(report)["runs"]}
            with CampaignClient(sock) as client:
                sims = client.ping()["simulations"]
            assert sims == len(keys), (sims, len(keys))
        finally:
            serve.send_signal(signal.SIGKILL)
            serve.wait(timeout=60)

        # Daemon restart serves the cache without simulating.
        sock2 = sock_dir / "acr2.sock"
        serve = _cli("serve", "--socket", str(sock2), "--cache-dir", cache,
                     "--jobs", "2")
        try:
            assert wait_for_socket(sock2, timeout_s=60.0)
            _finish(_cli(*_SUBMIT, "--socket", str(sock2),
                         "--json", str(out["restarted"])))
            assert out["restarted"].read_bytes() == report
            with CampaignClient(sock2) as client:
                assert client.ping()["simulations"] == 0
            assert main(["shutdown", "--socket", str(sock2)]) == 0
            assert serve.wait(timeout=60) == 0
        finally:
            if serve.poll() is None:
                serve.kill()
                serve.wait()

        # Two concurrent solo runners on one cache simulate each key once.
        shared = tmp_path / "shared"
        _finish(
            _cli(*_SUBMIT, "--solo", "--jobs", "2", "--cache-dir",
                 str(shared), "--json", str(out["shared-a"])),
            _cli(*_SUBMIT, "--solo", "--jobs", "2", "--cache-dir",
                 str(shared), "--json", str(out["shared-b"])),
        )
        assert out["shared-a"].read_bytes() == report
        assert out["shared-b"].read_bytes() == report
        entries = sorted(path.stem for path in shared.glob("*/*.json"))
        lines = (shared / "journal.jsonl").read_text().splitlines()
        records = Counter(json.loads(line)["key"] for line in lines if line)
        assert sorted(records) == entries, "journal keys != cache entries"
        assert set(records.values()) == {1}, records


class TestJobsIdentity:
    def test_report_jobs_1_equals_jobs_2(self, tmp_path):
        for jobs in ("1", "2"):
            assert main(_REPORT + ["--jobs", jobs,
                                   "--out", str(tmp_path / jobs)]) == 0
        assert _same_tree(tmp_path / "1", tmp_path / "2")

    def test_inject_jobs_1_equals_jobs_2(self, tmp_path, capsys):
        for jobs in ("1", "2"):
            assert main(["inject", "cg", "dc", "--trials", "2",
                         "--jobs", jobs,
                         "--json", str(tmp_path / f"{jobs}.json")]) == 0
        assert (tmp_path / "1.json").read_bytes() == (
            tmp_path / "2.json"
        ).read_bytes()
