"""Torn tails under crashed campaigns: journal + telemetry snapshots.

A SIGKILL can land mid-``write`` on either append-only stream beside the
result cache.  The contracts pinned here:

* a half-written **journal** record costs exactly one resumed task — the
  committed prefix loads (warning-free for a clean tear, a warning for
  interior corruption) and the resumed campaign reports bit-identically;
* a half-written **telemetry snapshot** never poisons replay — the
  committed prefix renders, and the next campaign appends past it.
"""

import json

import pytest

from repro.inject.campaign import build_trials, run_campaign
from repro.experiments.runner import ExperimentRunner
from repro.obs.telemetry.aggregate import CampaignTelemetry
from repro.obs.telemetry.monitor import replay
from repro.obs.telemetry.snapshots import read_snapshots


def _specs(trials=2):
    return build_trials(
        ["cg"], trials=trials, num_cores=2, steps_per_interval=2,
        iters_per_step=4, region_scale=0.05, reps=2,
    )


def _runner(**kw):
    kw.setdefault("num_cores", 2)
    kw.setdefault("region_scale", 0.05)
    kw.setdefault("reps", 2)
    return ExperimentRunner(**kw)


def _report_json(report):
    return json.dumps(report.to_json_dict(), sort_keys=True)


def _truncate_mid_record(path):
    """Simulate a crash mid-append: keep the committed prefix plus the
    first half of the final record (no trailing newline)."""
    raw = path.read_text(encoding="utf-8")
    lines = raw.splitlines(keepends=True)
    assert len(lines) >= 2, "need a committed prefix to tear after"
    last = lines[-1]
    path.write_text(
        "".join(lines[:-1]) + last[: len(last) // 2].rstrip("\n"),
        encoding="utf-8",
    )
    return len(lines) - 1


def test_torn_journal_tail_resumes_bit_identically(tmp_path):
    specs = _specs()
    undisturbed = run_campaign(_runner(jobs=1), _specs())

    cache = tmp_path / "cache"
    first = _runner(jobs=1, cache_dir=cache)
    run_campaign(first, specs)
    journal_path = first.cache.journal_path()
    committed = _truncate_mid_record(journal_path)

    second = _runner(jobs=1, cache_dir=cache, resume=True)
    resumed = run_campaign(second, specs)
    # The torn record's task was served from the result cache (keyed
    # independently of the journal); the committed prefix was honoured.
    assert second.progress.resumed == committed == len(specs) - 1
    assert second.progress.simulated == 0
    assert _report_json(resumed) == _report_json(undisturbed)
    # The journal keeps exactly the committed prefix: cache hits are not
    # re-journaled (only executions are), and the tear cost one record.
    assert len(second.journal.load()) == committed


def test_corrupt_interior_journal_record_resumes_with_warning(tmp_path):
    specs = _specs()
    undisturbed = run_campaign(_runner(jobs=1), _specs())

    cache = tmp_path / "cache"
    first = _runner(jobs=1, cache_dir=cache)
    run_campaign(first, specs)
    journal_path = first.cache.journal_path()
    lines = journal_path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[0] = "}} definitely not json {{\n"
    journal_path.write_text("".join(lines), encoding="utf-8")

    # The journal loads (and warns) at construction time under resume.
    with pytest.warns(UserWarning, match="undecodable"):
        second = _runner(jobs=1, cache_dir=cache, resume=True)
    resumed = run_campaign(second, specs)
    assert second.progress.resumed == len(specs) - 1
    assert _report_json(resumed) == _report_json(undisturbed)


def test_torn_snapshot_tail_replays_and_appends_past(tmp_path):
    cache = tmp_path / "cache"
    first = _runner(jobs=1, cache_dir=cache)
    telemetry = CampaignTelemetry(
        progress=first.progress,
        snapshot_path=first.cache.telemetry_path(),
        snapshot_interval_s=0.0,
    )
    first.telemetry = telemetry
    run_campaign(first, _specs())
    telemetry.close()
    path = first.cache.telemetry_path()
    committed = _truncate_mid_record(path)

    # The committed prefix still loads and replays, tear ignored.
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        docs = read_snapshots(path)
    assert len(docs) == committed
    assert replay(path, stream=_Sink()) == 0

    # A follow-up campaign appends past the tear; its own records load.
    second = _runner(jobs=1, cache_dir=cache, resume=True)
    second_tele = CampaignTelemetry(
        progress=second.progress,
        snapshot_path=second.cache.telemetry_path(),
        snapshot_interval_s=0.0,
    )
    second.telemetry = second_tele
    run_campaign(second, _specs())
    final = second_tele.close()
    # The tear became a skippable corrupt interior line (the follow-up
    # campaign repaired the tail before appending) — skipped with a
    # warning by contract, so every clean record on either side loads.
    with pytest.warns(UserWarning, match="undecodable"):
        docs = read_snapshots(path)
    assert len(docs) >= committed + second_tele.snapshots_written - 1
    assert docs[-1]["frames"] == final["frames"]


class _Sink:
    """Minimal text stream for replay output."""

    def __init__(self):
        self.text = ""

    def write(self, chunk):
        self.text += chunk

    def flush(self):
        pass
