"""Tests for the CLI (small scales, captured output)."""

import pytest

from repro.cli import build_parser, main

SMALL = ["--scale", "0.1", "--cores", "2", "--reps", "10"]

TINY_WORKLOADS = ["bt", "is"]


@pytest.fixture()
def tiny_registry(monkeypatch):
    """Restrict report generation to two benchmarks (speed)."""
    monkeypatch.setattr(
        "repro.experiments.runner.all_workload_names",
        lambda: list(TINY_WORKLOADS),
    )


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nope", "Ckpt_NE"])

    def test_nockpt_not_runnable(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "bt", "NoCkpt"])


class TestCommands:
    def test_run(self, capsys):
        assert main(["run", "bt", "ReCkpt_E", "--checkpoints", "5"] + SMALL) == 0
        out = capsys.readouterr().out
        assert "ReCkpt_E" in out
        assert "TOTAL overhead" in out
        assert "recoveries: 1" in out
        assert "vs NoCkpt" in out

    def test_compare(self, capsys):
        assert main(["compare", "is"] + SMALL) == 0
        out = capsys.readouterr().out
        for name in ("Ckpt_NE", "ReCkpt_E_Loc"):
            assert name in out

    def test_slices(self, capsys):
        assert main(["slices", "mg", "--threshold", "30"] + SMALL) == 0
        out = capsys.readouterr().out
        assert "coverage" in out
        assert "slice-length histogram" in out

    def test_slices_reports_rejections_and_lint_summary(self, capsys):
        assert main(["slices", "mg", "--threshold", "30"] + SMALL) == 0
        out = capsys.readouterr().out
        assert "slice rejections by reason" in out
        assert "loop-carried" in out
        assert "lint: 0 finding(s)" in out

    def test_baselines(self, capsys):
        assert main(["baselines", "bt", "--every-k", "3"] + SMALL) == 0
        out = capsys.readouterr().out
        assert "full snapshots would" in out
        assert "level-2 drain" in out


class TestTraceAndStats:
    def test_trace_exports_valid_chrome_and_jsonl(self, tmp_path, capsys):
        import json

        from repro.obs.export import validate_chrome_trace
        from repro.obs.lint import lint_jsonl

        out = tmp_path / "run.trace.json"
        jsonl = tmp_path / "run.trace.jsonl"
        assert main(
            ["trace", "is", "ReCkpt_E", "--checkpoints", "5",
             "--out", str(out), "--jsonl", str(jsonl)] + SMALL
        ) == 0
        text = capsys.readouterr().out
        assert "run ReCkpt_E" in text
        assert "perfetto" in text.lower()
        assert "captured" in text

        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) == []
        names = {e.get("name") for e in doc["traceEvents"]}
        assert "checkpoint 0" in names
        assert "log bytes" in names
        assert "addrmap" in names
        assert any(n.startswith("recovery") for n in names)

        count, errors = lint_jsonl(jsonl)
        assert errors == []
        assert count > 0

    def test_trace_limit_caps_capture(self, tmp_path, capsys):
        import re

        out = tmp_path / "t.json"
        assert main(
            ["trace", "is", "ReCkpt_E", "--checkpoints", "5",
             "--out", str(out), "--limit", "10"] + SMALL
        ) == 0
        text = capsys.readouterr().out
        match = re.search(r"10 captured / (\d+) dropped", text)
        assert match, text
        assert int(match.group(1)) > 0  # the rest was counted as dropped

    def test_trace_default_config(self, tmp_path):
        args = build_parser().parse_args(
            ["trace", "is", "--out", str(tmp_path / "t.json")]
        )
        assert args.config == "ReCkpt_E"

    def test_stats_prints_metric_tables(self, capsys):
        assert main(
            ["stats", "is", "ReCkpt_E", "--checkpoints", "5"] + SMALL
        ) == 0
        text = capsys.readouterr().out
        assert "run ReCkpt_E" in text
        assert "counters" in text
        assert "histograms" in text
        assert "log.writes_taken" in text
        assert "ckpt.logged_bytes" in text
        assert "events: 0 captured / 0 dropped" in text


class TestLintCommand:
    TINY = ["--scale", "0.1", "--reps", "8"]

    def test_clean_benchmark_exits_zero(self, capsys):
        assert main(["lint", "bt"] + self.TINY) == 0
        out = capsys.readouterr().out
        assert "bt: lint: 0 finding(s)" in out
        assert "replayed" in out

    def test_explicit_threshold_and_no_oracle(self, capsys):
        assert main(
            ["lint", "mg", "--threshold", "5", "--no-oracle"] + self.TINY
        ) == 0
        assert "0 value(s) replayed" in capsys.readouterr().out

    def test_json_format(self, capsys):
        import json

        assert main(["lint", "is", "--format", "json"] + self.TINY) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["benchmark"] == "is"
        assert doc["summary"]["ok"] is True
        assert doc["summary"]["total"] == 0
        assert doc["sites_embedded"] > 0

    def test_all_benchmarks(self, capsys, monkeypatch):
        import json

        monkeypatch.setattr(
            "repro.cli.all_workload_names", lambda: list(TINY_WORKLOADS)
        )
        assert main(["lint", "--all", "--format", "json"] + self.TINY) == 0
        docs = json.loads(capsys.readouterr().out)
        assert [d["benchmark"] for d in docs] == TINY_WORKLOADS
        assert all(d["summary"]["ok"] for d in docs)

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("ACR001", "ACR004", "ACR007", "ACR008"):
            assert rule in out
        assert "recompute-divergence" in out

    def test_select_and_ignore(self, capsys):
        assert main(["lint", "bt", "--select", "ACR003"] + self.TINY) == 0
        assert main(
            ["lint", "bt", "--ignore", "ACR008,ACR005"] + self.TINY
        ) == 0

    def test_unknown_rule_pattern_exits_two(self, capsys):
        assert main(["lint", "bt", "--select", "ACR9"] + self.TINY) == 2
        assert "unknown rule pattern" in capsys.readouterr().err

    def test_missing_benchmark_exits_two(self, capsys):
        assert main(["lint"] + self.TINY) == 2
        assert "--all" in capsys.readouterr().err

    def test_error_findings_exit_one(self, capsys, monkeypatch):
        from repro.verify import Diagnostic, LintReport, Severity

        def fake_verify(cp, **kwargs):
            return LintReport(
                findings=[
                    Diagnostic(
                        "ACR003", "dangling-assoc", Severity.ERROR,
                        "planted for the exit-code test", site=0,
                    )
                ],
                slices_checked=1,
            )

        monkeypatch.setattr("repro.cli.verify_program", fake_verify)
        assert main(["lint", "bt"] + self.TINY) == 1
        out = capsys.readouterr().out
        assert "ACR003" in out
        assert "planted" in out


class TestJobsAndCacheFlags:
    def test_every_subcommand_accepts_jobs_and_cache_dir(self, tmp_path):
        parser = build_parser()
        for argv in (
            ["report", "--jobs", "4", "--cache-dir", str(tmp_path)],
            ["run", "bt", "Ckpt_NE", "--jobs", "2", "--cache-dir", "c"],
            ["compare", "is", "--jobs", "2"],
            ["baselines", "bt", "--cache-dir", "c"],
        ):
            args = parser.parse_args(argv)
            assert args.jobs >= 1
            assert hasattr(args, "cache_dir")

    @pytest.mark.parametrize("bad", ["0", "-2", "four"])
    def test_non_positive_jobs_rejected_cleanly(self, bad, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "bt", "Ckpt_NE", "--jobs", bad] + SMALL)
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_cache_dir_colliding_with_file_errors_cleanly(
        self, tmp_path, capsys
    ):
        blocker = tmp_path / "notadir"
        blocker.write_text("")
        code = main(
            ["run", "bt", "Ckpt_NE", "--cache-dir", str(blocker)] + SMALL
        )
        assert code == 2
        assert "not a directory" in capsys.readouterr().err

    def test_run_with_cache_dir_is_deterministic_across_invocations(
        self, tmp_path, capsys
    ):
        argv = ["run", "bt", "ReCkpt_E", "--checkpoints", "5",
                "--cache-dir", str(tmp_path / "cache")] + SMALL
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert len(list((tmp_path / "cache").glob("*/*.json"))) >= 2
        assert main(argv) == 0  # second invocation: served from disk
        warm = capsys.readouterr().out
        assert warm == cold

    def test_compare_with_jobs_matches_serial(self, capsys):
        assert main(["compare", "is"] + SMALL) == 0
        serial = capsys.readouterr().out
        assert main(["compare", "is", "--jobs", "2"] + SMALL) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial


class TestReportCommand:
    def test_report_end_to_end_serial_vs_parallel_identical(
        self, tmp_path, tiny_registry, capsys
    ):
        tiny = ["--scale", "0.1", "--cores", "2", "--reps", "12"]
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        assert main(["report", "--out", str(serial_dir)] + tiny) == 0
        capsys.readouterr()
        assert main(
            ["report", "--out", str(parallel_dir), "--jobs", "2",
             "--cache-dir", str(tmp_path / "cache")] + tiny
        ) == 0
        out = capsys.readouterr().out
        assert "run summary" in out

        names = sorted(p.name for p in serial_dir.glob("*.txt"))
        assert names == sorted(p.name for p in parallel_dir.glob("*.txt"))
        assert "fig06_time_overhead.txt" in names
        assert "table2_threshold.txt" in names
        for name in names:
            if name == "run_summary.txt":  # timings legitimately differ
                continue
            assert (
                (serial_dir / name).read_text()
                == (parallel_dir / name).read_text()
            ), f"{name} differs between serial and parallel report"


class TestInjectCommand:
    def test_campaign_exits_zero_when_bit_exact(self, tmp_path, capsys):
        out_json = tmp_path / "report.json"
        assert main([
            "inject", "cg", "dc", "--trials", "4",
            "--cache-dir", str(tmp_path / "cache"),
            "--json", str(out_json),
        ]) == 0
        out = capsys.readouterr().out
        assert "fault-injection campaign" in out
        assert "recovered bit-exactly" in out
        assert out_json.exists()

    def test_warm_cache_serves_from_disk(self, tmp_path, capsys):
        args = ["inject", "cg", "--trials", "2",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        # 2 trials per configuration x {BER, ACR} = 4 disk hits.
        assert "disk 4" in capsys.readouterr().out

    def test_seeded_defect_fails_with_provenance(self, capsys):
        code = main([
            "inject", "dc", "--trials", "4", "--seed", "1",
            "--configs", "ACR", "--targets", "mem",
            "--defect", "skip-recompute",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "skipped recompute of address" in out
        assert "diverged: dc/ACR" in out

    def test_unknown_benchmark_exits_two(self, capsys):
        assert main(["inject", "nosuch", "--trials", "1"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_bad_config_list_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["inject", "--configs", "Ckpt_E"])

    def test_engine_flag_rejected(self, capsys):
        # Trials always run on the interpreter: there is no engine to pick.
        with pytest.raises(SystemExit) as exc:
            main(["inject", "cg", "--engine", "vector"])
        assert exc.value.code == 2
        assert "--engine" in capsys.readouterr().err

    def test_parallel_matches_serial(self, capsys):
        assert main(["inject", "cg", "--trials", "3"]) == 0
        serial = capsys.readouterr().out
        assert main(["inject", "cg", "--trials", "3", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out

        # Identical campaign table/verdict; only the runs: footer differs
        # (sim vs worker attribution).  The resilience footer shows
        # visible zeros on both paths.
        def stable(text):
            return [
                line for line in text.splitlines()
                if not line.startswith("runs:")
            ]

        assert stable(parallel) == stable(serial)
        assert "resilience: 0 worker deaths" in serial


class TestAnalyzeCommand:
    TINY = ["--scale", "0.1", "--cores", "2", "--reps", "8"]

    def test_clean_benchmark_exits_zero(self, capsys):
        assert main(["analyze", "bt"] + self.TINY) == 0
        out = capsys.readouterr().out
        assert "vector-safety certificates" in out
        assert "bt" in out

    def test_json_with_coverage(self, capsys):
        import json

        assert main(
            ["analyze", "cg", "--format", "json", "--explain-fallbacks"]
            + self.TINY
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["benchmark"] == "cg"
        assert doc["safe"] + doc["denied"] == doc["segments"] > 0
        assert doc["coverage"]["replayed_iterations"] > 0

    def test_missing_benchmark_exits_two(self, capsys):
        assert main(["analyze"] + self.TINY) == 2
        assert "--all" in capsys.readouterr().err

    def test_denials_render_rule_and_span(self, capsys, monkeypatch):
        # A forged workload whose kernel reloads its own store window
        # after a wrap: ACR009 denies the certificate, the runtime
        # degrades the same segment, and the explain output must tie
        # the two together.
        from repro.isa.builder import chain_kernel
        from repro.isa.instructions import AddressPattern
        from repro.isa.program import Program

        class ClashSpec:
            def build_programs(self, num_cores, region_scale=1.0, reps=None):
                programs = []
                for t in range(num_cores):
                    base = (t + 1) << 24
                    kernel = chain_kernel(
                        "clash",
                        AddressPattern(base, 1, 8),
                        [AddressPattern(base, 1, 8, offset=6)],
                        chain_depth=2,
                        trip_count=8,
                        salt=t + 1,
                    )
                    programs.append(Program([kernel], t))
                return programs

        monkeypatch.setattr(
            "repro.cli.get_workload", lambda name: ClashSpec()
        )
        # Advisory denials explain the fallback; they never fail the run.
        assert main(
            ["analyze", "bt", "--explain-fallbacks"] + self.TINY
        ) == 0
        out = capsys.readouterr().out
        assert "ACR009" in out
        assert "instr" in out  # the offending instruction span
        assert "runtime fallback ACR009" in out

    def test_unexplained_fallback_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "repro.cli._vector_runtime_coverage",
            lambda programs, cores: {
                "replayed_iterations": 10,
                "fallback_iterations": 5,
                "fallback.mystery": 5,
            },
        )
        assert main(
            ["analyze", "bt", "--explain-fallbacks"] + self.TINY
        ) == 1
        assert "UNEXPLAINED" in capsys.readouterr().out
