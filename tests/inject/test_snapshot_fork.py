"""Fork-from-snapshot bit-identity: the tentpole acceptance contract.

A trial that forks its faulty pass from a golden boundary snapshot must
be indistinguishable — field for field, byte for byte — from the same
trial run straight through from step 0.  These tests pin that contract
at three layers: single trials across every workload, campaign reports
hashed as JSON, and the snapshot store's persistence / quarantine
behaviour.
"""

import hashlib
import json

import pytest

from repro.experiments.runner import ExperimentRunner
from repro.inject import campaign as campaign_mod
from repro.inject import harness
from repro.inject.harness import (
    GoldenRun,
    TrialSpec,
    fork,
    golden_key,
    run_golden,
    run_trial,
)
from repro.sim.mechanism import SnapshotRecorder
from repro.sim.snapshot import SnapshotStore, encode_payload
from repro.workloads import all_workload_names


def _resolved(history, intervals):
    """``intervals`` as canonical JSON with every entry reference
    replaced by the entry's row and every memory delta by the words its
    interval wrote, so two histories' records compare whatever order
    their entry tables were built in and wherever their whole images
    fall."""
    entries = history.entries
    docs = []
    for record in intervals:
        doc = json.loads(json.dumps(record.to_payload()))
        values = dict(doc.pop("delta"))
        del doc["whole"]
        doc["written"] = sorted(
            [row[0], values[row[0]]] for row in doc["records"] + doc["omitted"]
        )
        for row in doc["omitted"]:
            row[1] = list(entries[row[1]])
        for gen in doc["generations"] or ():
            for row in gen[0]:
                row[1] = list(entries[row[1]])
        docs.append(json.dumps(doc, sort_keys=True))
    return docs


@pytest.fixture(autouse=True)
def clean_golden_memo():
    # Tests about store hits/misses need the in-process memo empty.
    harness._GOLDEN_MEMO.clear()
    yield
    harness._GOLDEN_MEMO.clear()


class TestTrialBitIdentity:
    @pytest.mark.parametrize("workload", all_workload_names())
    def test_forked_equals_straight(self, workload):
        spec = TrialSpec(workload=workload, seed=7)
        straight = run_trial(spec)
        forked = run_trial(spec, snapshots=True)
        assert forked.to_dict() == straight.to_dict()

    @pytest.mark.parametrize("config", ["ACR", "BER"])
    @pytest.mark.parametrize("target", ["mem", "log", "addrmap", "arch"])
    def test_all_targets_both_configs(self, config, target):
        spec = TrialSpec(
            workload="cg", config=config, target=target, seed=3
        )
        straight = run_trial(spec)
        forked = run_trial(spec, snapshots=True)
        assert forked.to_dict() == straight.to_dict()

    def test_divergent_outcome_reproduced(self):
        # Forking must not launder real divergence (dc + skip-recompute
        # is the suite's known-diverging defect combination).
        spec = TrialSpec(
            workload="dc", config="ACR", target="mem", seed=1,
            defect="skip-recompute",
        )
        straight = run_trial(spec)
        forked = run_trial(spec, snapshots=True)
        assert forked.to_dict() == straight.to_dict()


class TestGoldenRun:
    def test_boundary_resnapshot_is_fixed_point(self):
        # Restoring a boundary into a fresh pass and recording the rest
        # of its run must reproduce the golden's later interval records
        # exactly: recording and restoring are inverses on live mid-run
        # state.
        spec = TrialSpec(workload="cg", seed=5)
        golden = run_golden(spec)
        intervals = golden.history.intervals
        assert len(intervals) >= 2
        mid = len(intervals) // 2
        child = fork(spec, golden.history, mid)[0]
        recorder = SnapshotRecorder(child.mech, child.initial_arch)
        child.run_to_end(lambda: child.record_boundary(recorder))
        again = recorder.history()
        assert _resolved(again, again.intervals) == _resolved(
            golden.history, intervals[mid:]
        )

    def test_resumed_fork_reaches_golden_end_state(self):
        spec = TrialSpec(workload="is", seed=2)
        golden = run_golden(spec)
        last = len(golden.history.intervals)
        child = fork(spec, golden.history, last)[0]
        child.run_to_end()
        assert child.memory.snapshot() == dict(golden.final_words)
        assert child.steps == golden.total_steps

    def test_bytes_round_trip_fixed_point(self):
        spec = TrialSpec(workload="cg", seed=5)
        golden = run_golden(spec)
        blob = golden.to_bytes()
        again = GoldenRun.from_bytes(blob)
        assert again.to_bytes() == blob
        assert again.total_steps == golden.total_steps
        assert len(again.history.intervals) == len(golden.history.intervals)

    def test_key_distinguishes_spec(self):
        spec = TrialSpec(workload="cg", seed=5)
        other = TrialSpec(workload="cg", seed=5, steps_per_interval=7)
        assert golden_key(spec) != golden_key(other)
        # Trial-randomization fields do not fragment the golden cache.
        retargeted = TrialSpec(workload="cg", seed=99, target="arch")
        assert golden_key(spec) == golden_key(retargeted)


class TestSnapshotStorePath:
    def test_store_reused_without_reexecution(self, tmp_path, monkeypatch):
        store = SnapshotStore(tmp_path)
        warm = run_trial(TrialSpec(workload="cg", seed=1),
                         snapshots=True, snapshot_store=store)
        harness._GOLDEN_MEMO.clear()

        def boom(spec):
            raise AssertionError("golden pass re-executed despite store")

        monkeypatch.setattr(harness, "run_golden", boom)
        # Different trial seed, same golden key: must come from disk.
        again = run_trial(TrialSpec(workload="cg", seed=1),
                          snapshots=True, snapshot_store=store)
        assert again.to_dict() == warm.to_dict()

    def test_corrupt_blob_quarantined_and_recomputed(self, tmp_path):
        store = SnapshotStore(tmp_path)
        spec = TrialSpec(workload="cg", seed=1)
        key = golden_key(spec)
        store.save(key, b"not a snapshot")
        result = run_trial(spec, snapshots=True, snapshot_store=store)
        assert result.to_dict() == run_trial(spec).to_dict()
        # The bad blob was replaced by a loadable one.
        GoldenRun.from_bytes(store.load(key))

    def test_malformed_rows_quarantined_and_recomputed(self, tmp_path):
        # A well-framed blob whose rows are malformed decodes to an
        # error, never to a golden run that fails mid-trial.
        store = SnapshotStore(tmp_path)
        spec = TrialSpec(workload="cg", seed=1)
        key = golden_key(spec)
        doc = run_golden(spec).to_payload()
        doc["final_words"] = [[a, str(v)] for a, v in doc["final_words"]]
        store.save(key, encode_payload(doc))
        result = run_trial(spec, snapshots=True, snapshot_store=store)
        assert result.to_dict() == run_trial(spec).to_dict()
        assert GoldenRun.from_bytes(store.load(key)).to_bytes() == (
            run_golden(spec).to_bytes())


class TestCampaignReportIdentity:
    def _report_sha(self, runner, specs, path):
        results = runner.run_trials(specs)
        report = campaign_mod.CampaignReport(results)
        report.write_json(path)
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_forked_campaign_report_hash_matches(self, tmp_path):
        specs = campaign_mod.build_trials(["cg", "is"], trials=4, seed=11)
        straight = ExperimentRunner(snapshots=False)
        forked = ExperimentRunner(
            snapshots=True, snapshot_dir=tmp_path / "snaps"
        )
        sha_straight = self._report_sha(
            straight, specs, tmp_path / "straight.json"
        )
        sha_forked = self._report_sha(
            forked, specs, tmp_path / "forked.json"
        )
        assert sha_forked == sha_straight
        assert forked.progress.forked_trials == len(specs)
        assert straight.progress.forked_trials == 0
        assert "forked from golden boundaries" in (
            forked.progress.summary_table()
        )
        # The snapshot dir actually holds the persisted goldens.
        saved = list((tmp_path / "snaps").rglob("*.snap"))
        assert saved, "no snapshots persisted to --snapshot-dir"
        doc = json.loads((tmp_path / "forked.json").read_text())
        assert doc["ok"] is True
