"""Fault-injection campaigns end to end through the CLI.

These were two CI jobs of their own (``inject-smoke``,
``snapshot-smoke``); the tier-1 job runs them now, and an in-process
campaign is shown to build no vector plan:

* ``TestInjectSmoke`` — a tiny cold campaign (two workloads x two seeds,
  both configurations) recovers every flipped bit bit-exactly; a plain
  warm re-run on the same cache is served entirely from it (a re-run is
  the resume); an in-process run reports the same bytes, with the vector
  plan builder made to raise; and AddrMap lookup ECC refuses damaged
  entries identically forked and straight;
* ``TestSnapshotSmoke`` — a campaign forked from golden snapshots
  reports byte-identically to a straight-through one, and a re-run
  against the warm ``--snapshot-dir`` still matches byte for byte.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.sim.vector import plans

_CAMPAIGN = ["inject", "cg", "dc", "--trials", "2"]
_ECC = ["inject", "cg", "--trials", "8", "--configs", "ACR",
        "--targets", "addrmap"]
_SNAP = ["inject", "cg", "is", "--trials", "4"]


class TestInjectSmoke:
    @pytest.fixture(scope="class")
    def cold(self, tmp_path_factory):
        """The cold ``--jobs 2`` campaign's cache and JSON report."""
        root = tmp_path_factory.mktemp("inject")
        assert main(_CAMPAIGN + ["--jobs", "2",
                                 "--cache-dir", str(root / "cache"),
                                 "--json", str(root / "report.json")]) == 0
        return root

    def test_cold_campaign_recovers_every_trial(self, cold):
        doc = json.loads((cold / "report.json").read_text())
        assert doc["ok"] is True, doc
        assert doc["trials"] == 4
        assert doc["outcomes"]["diverged"] == 0
        assert doc["outcomes"]["unrecoverable"] == 0
        assert set(doc["configs"]) == {"ACR", "BER"}

    def test_warm_rerun_is_served_from_the_cache(self, cold, capsys):
        capsys.readouterr()
        assert main(_CAMPAIGN + ["--cache-dir", str(cold / "cache")]) == 0
        assert "disk 4" in capsys.readouterr().out

    def test_in_process_campaign_reports_the_same_bytes(
        self, cold, tmp_path
    ):
        inprocess = tmp_path / "inprocess.json"
        assert main(_CAMPAIGN + ["--jobs", "1", "--json",
                                 str(inprocess)]) == 0
        assert inprocess.read_bytes() == (cold / "report.json").read_bytes()

    def test_in_process_campaign_builds_no_vector_plan(
        self, cold, tmp_path, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("an injection campaign built a vector plan")

        monkeypatch.setattr(plans, "_build_plan", refuse)
        monkeypatch.setattr(plans.KernelPlan, "__init__", refuse)
        out = tmp_path / "planless.json"
        assert main(_CAMPAIGN + ["--jobs", "1", "--json", str(out)]) == 0
        assert out.read_bytes() == (cold / "report.json").read_bytes()

    def test_addrmap_ecc_forked_equals_straight(self, tmp_path):
        forked, straight = tmp_path / "ecc.json", tmp_path / "straight.json"
        assert main(_ECC + ["--json", str(forked)]) == 0
        assert main(_ECC + ["--no-fork", "--json", str(straight)]) == 0
        assert forked.read_bytes() == straight.read_bytes()
        acr = json.loads(forked.read_text())["configs"]["ACR"]
        assert acr["ecc_lookup_hits"] >= 1, acr
        assert acr["diverged"] == 0, acr


class TestSnapshotSmoke:
    def test_forked_straight_and_warm_store_report_identically(
        self, tmp_path, capsys
    ):
        store = tmp_path / "snap-store"
        out = {name: tmp_path / f"{name}.json"
               for name in ("forked", "straight", "rewarmed")}
        capsys.readouterr()
        assert main(_SNAP + ["--snapshot-dir", str(store),
                             "--json", str(out["forked"])]) == 0
        assert "forked from golden boundaries" in capsys.readouterr().out
        assert main(_SNAP + ["--no-fork",
                             "--json", str(out["straight"])]) == 0
        assert out["forked"].read_bytes() == out["straight"].read_bytes()

        assert next(store.rglob("*.snap"), None) is not None
        assert main(_SNAP + ["--snapshot-dir", str(store),
                             "--json", str(out["rewarmed"])]) == 0
        assert out["forked"].read_bytes() == out["rewarmed"].read_bytes()
