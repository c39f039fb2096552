"""Checks of the ledger's own definition and of its smoke run.

    PYTHONPATH=src python -m pytest -q benchmarks/ledger/test_ledger.py

The smoke run (``run.py --smoke --trace``, under 30 s) must emit every
per-layer metric BENCHMARK.json lists, or report it as absent when the
callable it wraps no longer exists.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((HERE / "layers.json").read_text())["groups"]
EXPECTED = json.loads((HERE / "expected.json").read_text())

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: Per-layer metrics that legitimately read 0 on every smoke workload.
MAY_BE_ZERO = {"sim.vector.fallback_iterations"}
#: Per-layer metrics the load generator measures, not a wrapped target.
FROM_LOAD_GENERATOR = {"service.dedupe_ratio"}


def test_benchmark_shape():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert BENCH["command"][0] == "python3"
    for path in BENCH["paths"]:
        assert re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", path)
        assert (ROOT / path).is_dir()
    assert 1 <= BENCH["run_seconds"] <= 60
    assert 2 <= len(BENCH["workloads"]) <= 8
    assert 1 <= len(BENCH["end_to_end"]) <= 16
    assert 1 <= len(BENCH["per_layer"]) <= 128
    names = [w["name"] for w in BENCH["workloads"]]
    names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower",
                                                             "higher")
        assert 0 < m["bound"] <= 0.25
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower",
                                                             "higher")
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_layer_map_names_real_metrics_and_workloads():
    workloads = {w["name"] for w in BENCH["workloads"]}
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    assert [n for g in LAYERS for n in g["metrics"]] == [
        m["name"] for m in BENCH["per_layer"]]
    for g in LAYERS:
        assert g["moves"], g["metrics"]
        for metric, where in g["moves"].items():
            assert metric in e2e, (g["metrics"], metric)
            assert set(where) <= workloads, g["metrics"]
        assert set(g["no_change"]) <= workloads, g["metrics"]


def test_every_per_layer_metric_is_fed_by_a_target():
    fed = set(FROM_LOAD_GENERATOR)
    for span, _, _, _, feeds in spans.TARGETS:
        fed.update(feeds)
        if span is not None:
            fed.update((f"{span}.self_s", f"{span}.calls"))
    assert {m["name"] for m in BENCH["per_layer"]} <= fed


def test_checksums_recorded_for_seeds_0_and_1():
    for mode in ("full", "smoke"):
        for w in BENCH["workloads"]:
            sums = EXPECTED[mode][w["name"]]
            assert set(sums) == {"0", "1"}
            assert all(re.fullmatch(r"[0-9a-f]{64}", s) for s in sums.values())


def test_missing_target_is_absent_not_an_error():
    rec = spans.Recorder()
    spans.install(rec, targets=(
        ("x.gone", "repro.no_such_module", "f", None, ("x.ratio",)),
        ("x.gone", "repro.sim.simulator", "Simulator.no_such_method", None,
         ()),
        ("y.half", "repro.sim.simulator", "NoSuchClass.run", None,
         ("y.count",)),
        ("y.half", "repro.sim.results", "RunResult.to_dict", None, ()),
    ))
    # A span stays measured while one of its targets exists.
    assert rec.absent == ["x.gone.calls", "x.gone.self_s", "x.ratio",
                          "y.count"]


def test_self_time_excludes_children_and_merges_reentry():
    rec = spans.Recorder()

    def inner():
        return 1

    inner = rec.wrap("b", inner)

    def outer(depth=0):
        return inner() + (outer(depth + 1) if depth == 0 else 0)

    outer = rec.wrap("a", outer)
    rec.armed = True
    assert outer() == 2
    totals = rec.totals()
    assert totals["calls"] == {"a": 1, "b": 2}
    assert 0 <= totals["self_s"]["a"]
    span = {s["name"]: s for s in rec.spans()}
    assert span["b"]["parent"] == span["a"]["id"]


def test_fails_without_program_source(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "report-cold", "--seed", "0", "--seconds", "8", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "smoke.jsonl"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return [json.loads(line) for line in out.read_text().splitlines()]


def test_smoke_outputs_correct(smoke):
    assert {r["workload"] for r in smoke} == {w["name"]
                                             for w in BENCH["workloads"]}
    for r in smoke:
        assert r["correct"] and r["failed"] == 0, r["workload"]
        assert all(p["gate"] == "recorded" for p in r["passes"])


def test_smoke_emits_every_metric(smoke):
    e2e = [m["name"] for m in BENCH["end_to_end"]]
    per_layer = [m["name"] for m in BENCH["per_layer"]]
    seen = {name: 0.0 for name in per_layer}
    absent = set()
    for r in smoke:
        if r["trace"]:
            assert sorted(r["metrics"]) == sorted(per_layer)
            for name in per_layer:
                seen[name] = max(seen[name], r["metrics"][name]["value"])
            absent |= set(r["absent"])
        else:
            assert sorted(r["metrics"]) == sorted(e2e)
            assert all(m["value"] > 0 for m in r["metrics"].values())
    silent = {n for n, v in seen.items() if v == 0} - absent - MAY_BE_ZERO
    assert not silent, f"wrapped but never measured: {sorted(silent)}"
