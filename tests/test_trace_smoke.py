"""``acr-repro trace`` end to end: the CI ``trace-smoke`` job, in tier-1.

One workload is traced with the job's command, both exports are
written, the JSONL event stream must pass the ``repro.obs.lint`` check
(every line decodes through the strict event decoder), and the Chrome
trace must satisfy the structural validator (balanced spans, typed
args) and carry a checkpoint span and the log-bytes and AddrMap counter
tracks.
"""

from __future__ import annotations

import json

from repro.cli import main
from repro.obs import lint
from repro.obs.export import validate_chrome_trace


class TestTraceSmoke:
    def test_trace_exports_lint_and_validate(self, tmp_path, capsys):
        trace = tmp_path / "smoke.trace.json"
        jsonl = tmp_path / "smoke.trace.jsonl"
        assert main(["trace", "is", "ReCkpt_E", "--scale", "0.1",
                     "--reps", "10", "--cores", "2", "--checkpoints", "5",
                     "--out", str(trace), "--jsonl", str(jsonl)]) == 0
        capsys.readouterr()

        assert lint.main([str(jsonl)]) == 0
        assert "ok (" in capsys.readouterr().out

        doc = json.loads(trace.read_text())
        problems = validate_chrome_trace(doc)
        assert problems == [], problems
        names = {e.get("name") for e in doc["traceEvents"]}
        assert "checkpoint 0" in names
        assert "log bytes" in names and "addrmap" in names
