"""Command-line interface.

Installed as ``acr-repro`` (or run with ``python -m repro.cli``):

* ``acr-repro report``            — regenerate the paper's evaluation;
* ``acr-repro run bt ReCkpt_E``   — run one configuration, print the
  result with the overhead/energy decompositions;
* ``acr-repro compare bt``        — all nine configurations side by side;
* ``acr-repro slices bt``         — compiler-pass statistics and the
  slice-length histogram of a benchmark;
* ``acr-repro lint bt``           — slice soundness verification: static
  rules ``ACR001``–``ACR007`` plus the differential recompute oracle,
  with ``--select``/``--ignore`` filters and ``--format json``;
* ``acr-repro analyze bt``        — static vector-safety certification
  (``ACR009``–``ACR012``): per-segment certificates for the vector
  engine, with ``--explain-fallbacks`` attributing every runtime
  fallback to the rule that denied its certificate;
* ``acr-repro baselines bt``      — full-snapshot and hierarchical
  what-if cost models over the checkpointed run.
* ``acr-repro trace bt``          — run one configuration with the event
  tracer attached; export a Chrome ``trace_event`` file (load it at
  https://ui.perfetto.dev) and optionally the raw JSONL event stream;
* ``acr-repro stats bt``          — run with metrics collection only and
  print the counter/histogram summary tables;
* ``acr-repro inject``            — fault-injection campaign: flip real
  bits in live mechanism state, drive detection → rollback → Slice
  recomputation, and verify recovery bit-exactly against a golden
  re-execution (exit 1 unless every trial recovers exactly);
* ``acr-repro monitor --replay``  — render a recorded campaign-telemetry
  snapshot stream (``report``/``run``/``inject`` write one with
  ``--snapshots``; ``--live`` additionally shows it as a live dashboard
  while the campaign runs); ``--attach SOCKET`` renders a running
  campaign *daemon*'s frame stream live instead;
* ``acr-repro serve``             — run the campaign scheduler daemon:
  submissions over a Unix socket, results served straight from the disk
  cache (cached keys take no claim), concurrent clients' misses deduped
  through the runner's per-key claims;
* ``acr-repro submit bt ...``     — run a campaign on the daemon (or
  ``--solo`` in-process) and print/write its deterministic report —
  byte-identical across both paths;
* ``acr-repro shutdown``          — stop a running daemon.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from repro.analysis.baselines import (
    HierarchicalConfig,
    full_snapshot_costs,
    hierarchical_costs,
)
from repro.analysis.compare import compare_runs
from repro.analysis.decomposition import (
    decompose_overhead,
    energy_by_category,
    recovery_anatomy,
)
from repro.compiler.embed import compile_program
from repro.compiler.policy import ThresholdPolicy
from repro.experiments.configs import CONFIG_NAMES
from repro.experiments.runner import ExperimentRunner
from repro.inject.campaign import build_trials, run_campaign
from repro.inject.harness import CONFIGS, DEFECTS, TARGET_KINDS
from repro.obs.export import write_chrome_trace, write_jsonl
from repro.obs.tracer import RecordingTracer
from repro.sim.simulator import ENGINES
from repro.util.tables import format_table
from repro.verify.absint.certify import certify_run
from repro.verify.diagnostics import Severity
from repro.verify.engine import select_rules, verify_program
from repro.verify.oracle import ORACLE_RULE_ID, ORACLE_RULE_SLUG
from repro.verify.rules import RULES
from repro.workloads.registry import all_workload_names, get_workload

__all__ = ["main"]


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _name_list(allowed):
    """An argparse type: comma-separated subset of ``allowed`` names."""

    def parse(text: str) -> List[str]:
        parts = [p.strip() for p in text.split(",") if p.strip()]
        bad = [p for p in parts if p not in allowed]
        if not parts or bad:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated names from {allowed}, "
                f"got {text!r}"
            )
        return parts

    return parse


def _rule_list(text: str) -> List[str]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("expected comma-separated rule ids")
    return parts


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=0.5,
                        help="workload region scale (1.0 = full fidelity)")
    parser.add_argument("--cores", type=int, default=8)
    parser.add_argument("--reps", type=int, default=None)
    parser.add_argument("--jobs", type=_positive_int, default=1,
                        help="worker processes for independent runs")
    parser.add_argument("--cache-dir", type=str, default=None,
                        help="persist results here and reuse them across "
                             "invocations (content-addressed, versioned)")
    parser.add_argument("--engine", choices=ENGINES, default="interp",
                        help="execution engine: each kernel shape's "
                             "generated timed stepper or the vectorized "
                             "trace-replay engine (bit-identical results)")
    _add_timeout(parser)


def _add_timeout(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--timeout", type=float, default=600.0,
                        metavar="SECONDS",
                        help="how long a per-key claim may go without a "
                             "heartbeat before a waiting runner presumes "
                             "its owner hung and breaks it; it must exceed "
                             "the longest single key, or that key is "
                             "simulated twice (default: 600; this is no "
                             "longer a per-task deadline)")


def _add_telemetry(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--live", action="store_true",
                        help="stream live campaign telemetry to a "
                             "dashboard on stderr (plain blocks on dumb "
                             "terminals/pipes; in-place repaint on a TTY)")
    parser.add_argument("--snapshots", type=str, default=None,
                        metavar="PATH",
                        help="write periodic telemetry snapshots (JSONL) "
                             "here; with --live/--cache-dir and no PATH, "
                             "defaults to telemetry.jsonl beside the "
                             "result cache")


def _telemetry_for(args, runner: ExperimentRunner):
    """Build (and attach) the campaign telemetry the flags ask for —
    ``None`` (telemetry fully disabled) when neither flag is given."""
    live = getattr(args, "live", False)
    snapshots = getattr(args, "snapshots", None)
    if not live and snapshots is None:
        return None
    from repro.obs.telemetry import CampaignTelemetry, Monitor

    path = snapshots
    if path is None and runner.cache is not None:
        path = runner.cache.telemetry_path()
    telemetry = CampaignTelemetry(
        progress=runner.progress, snapshot_path=path
    )
    runner.telemetry = telemetry
    if live:
        Monitor(stream=sys.stderr).attach(telemetry)
    return telemetry


def _finish_telemetry(runner: ExperimentRunner, telemetry) -> None:
    """Close the telemetry (final snapshot), fold the totals into the
    progress footer, and print the campaign attribution table."""
    if telemetry is None:
        return
    telemetry.close()
    runner.progress.record_telemetry(
        telemetry.frames, telemetry.snapshots_written
    )
    if telemetry.profiler.total_seconds > 0:
        print()
        print(telemetry.attribution_table())
    print(runner.progress.telemetry_line())
    if telemetry.writer is not None:
        print(f"telemetry snapshots: {telemetry.writer.path}")


def _runner(args) -> ExperimentRunner:
    return ExperimentRunner(
        num_cores=args.cores, region_scale=args.scale, reps=args.reps,
        jobs=args.jobs, cache_dir=args.cache_dir,
        lock_stale_s=args.timeout, engine=args.engine,
    )


def _print_resilience(runner: ExperimentRunner) -> None:
    """The crash-tolerance footer: zeros are printed, not elided."""
    print(runner.progress.resilience_line())
    print(runner.progress.cache_line())


def cmd_report(args) -> int:
    from repro.experiments.report import generate_report

    runner = _runner(args)
    telemetry = _telemetry_for(args, runner)
    generate_report(
        runner,
        include_scalability=args.scalability,
        out_dir=args.out,
    )
    _finish_telemetry(runner, telemetry)
    return 0


def cmd_run(args) -> int:
    runner = _runner(args)
    telemetry = _telemetry_for(args, runner)
    base = runner.baseline(args.benchmark)
    run = runner.run_default(
        args.benchmark,
        args.config,
        num_checkpoints=args.checkpoints,
        error_count=args.errors,
    )
    print(run.describe())
    print()
    print(decompose_overhead(run).describe())
    print()
    cats = energy_by_category(run)
    print(
        format_table(
            ["energy category", "uJ", "%"],
            [
                [k, round(v / 1e6, 3), round(100 * v / run.energy_pj, 1)]
                for k, v in cats.items()
            ],
        )
    )
    if run.recoveries:
        a = recovery_anatomy(run)
        print(
            f"\nrecoveries: {a.count}  waste {a.waste_ns:.0f}ns  "
            f"rollback {a.rollback_ns:.0f}ns ({a.restored_records} records)"
            f"  recompute {a.recompute_ns:.0f}ns "
            f"({a.recomputed_values} values)"
        )
    print(f"\nvs NoCkpt: wall x{run.wall_ns / base.wall_ns:.3f}  "
          f"energy x{run.energy_pj / base.energy_pj:.3f}")
    _finish_telemetry(runner, telemetry)
    return 0


def cmd_compare(args) -> int:
    runner = _runner(args)
    base = runner.baseline(args.benchmark)
    runs = [
        runner.run_default(args.benchmark, name)
        for name in CONFIG_NAMES
        if name != "NoCkpt"
    ]
    print(compare_runs(base, runs, title=f"{args.benchmark}: all configurations"))
    return 0


def cmd_slices(args) -> int:
    spec = get_workload(args.benchmark)
    program = spec.build_programs(1, region_scale=args.scale, reps=args.reps)[0]
    policy = ThresholdPolicy(args.threshold)
    cp = compile_program(program, policy)
    s = cp.stats
    print(f"{args.benchmark}: threshold {args.threshold} "
          f"(default {spec.default_threshold})")
    print(
        format_table(
            ["metric", "value"],
            [
                ["store sites", s.sites_total],
                ["sliceable", s.sites_sliceable],
                ["embedded", s.sites_embedded],
                ["loop-carried", s.sites_loop_carried],
                ["trivial copies", s.sites_trivial],
                ["coverage", f"{100 * s.coverage:.1f}%"],
                ["embedded bytes", s.embedded_bytes],
            ],
        )
    )
    print(
        format_table(
            ["rejection reason", "sites"],
            [
                [reason.value, count]
                for reason, count in s.rejection_counts().items()
            ],
            title="slice rejections by reason",
        )
    )
    hist = cp.slices.length_histogram()
    print(
        format_table(
            ["slice length", "count"],
            [[l, hist[l]] for l in sorted(hist)],
            title="embedded slice-length histogram",
        )
    )
    report = verify_program(cp, policy=policy, oracle=False)
    print(report.summary_line())
    return 0


def _lint_one(benchmark: str, args):
    """Compile one benchmark and lint it; returns (report, stats)."""
    spec = get_workload(benchmark)
    threshold = (
        args.threshold if args.threshold is not None
        else spec.default_threshold
    )
    program = spec.build_programs(1, region_scale=args.scale, reps=args.reps)[0]
    policy = ThresholdPolicy(threshold)
    cp = compile_program(program, policy)
    report = verify_program(
        cp,
        policy=policy,
        select=args.select,
        ignore=args.ignore,
        oracle=not args.no_oracle,
        oracle_samples=args.oracle_samples,
    )
    return report, cp.stats


def cmd_lint(args) -> int:
    if args.list_rules:
        rows = [
            [r.rule_id, r.slug, r.severity.value, r.summary]
            for r in RULES.values()
        ]
        rows.append([
            ORACLE_RULE_ID, ORACLE_RULE_SLUG, "error",
            "differential oracle: recompute(snapshot) == stored value",
        ])
        print(format_table(["rule", "slug", "severity", "invariant"], rows))
        return 0
    # Validate filters once up front (typos must not pass silently).
    select_rules(args.select, args.ignore)
    benchmarks = (
        all_workload_names() if args.all
        else [args.benchmark] if args.benchmark
        else None
    )
    if benchmarks is None:
        print("acr-repro: error: lint needs a benchmark or --all",
              file=sys.stderr)
        return 2

    failed = False
    payload = []
    for benchmark in benchmarks:
        report, stats = _lint_one(benchmark, args)
        failed = failed or not report.ok
        if args.format == "json":
            doc = report.to_json_dict()
            doc["benchmark"] = benchmark
            doc["sites_embedded"] = stats.sites_embedded
            payload.append(doc)
        elif report.findings:
            print(f"{benchmark}:")
            print(report.render())
        else:
            print(f"{benchmark}: {report.summary_line()}")
    if args.format == "json":
        print(json.dumps(payload if args.all else payload[0], indent=2))
    return 1 if failed else 0


_CERT_RULES = ("ACR009", "ACR010", "ACR011", "ACR012")


def _vector_runtime_coverage(programs, cores: int) -> Dict[str, int]:
    """Run the vector engine over ``programs`` and fold its coverage.

    One baseline (NoCkpt) and one checkpointed ACR run (ReCkpt_E shape)
    exercise both the plain and the compiled store paths; their
    iteration counters are summed.
    """
    from repro.arch.config import MachineConfig
    from repro.sim.simulator import SimulationOptions, Simulator

    sim = Simulator(programs, MachineConfig(num_cores=cores))
    base = sim.run(
        SimulationOptions(label="NoCkpt", scheme="none", engine="vector")
    )
    ckpt = sim.run(
        SimulationOptions(
            label="ReCkpt_E", scheme="global", acr=True,
            baseline=base.baseline_profile(), engine="vector",
        )
    )
    coverage: Dict[str, int] = {}
    for res in (base, ckpt):
        for key, n in (res.vector_coverage or {}).items():
            coverage[key] = coverage.get(key, 0) + n
    return coverage


def _analyze_one(benchmark: str, args) -> Dict[str, Any]:
    """Certify one workload's segments; returns a JSON-able document."""
    spec = get_workload(benchmark)
    programs = spec.build_programs(
        args.cores, region_scale=args.scale, reps=args.reps
    )
    certificates = [c for per in certify_run(programs) for c in per]
    by_rule: Dict[str, int] = {}
    for cert in certificates:
        for denial in cert.denials:
            by_rule[denial.rule_id] = by_rule.get(denial.rule_id, 0) + 1
    doc: Dict[str, Any] = {
        "benchmark": benchmark,
        "cores": args.cores,
        "segments": len(certificates),
        "safe": sum(1 for c in certificates if c.safe),
        "denied": sum(1 for c in certificates if not c.safe),
        "denials_by_rule": by_rule,
        "denials": [
            {
                "core": c.core,
                "kernel_index": c.kernel_index,
                "kernel": c.kernel,
                "rule": d.rule_id,
                "span": list(d.span),
                "message": d.message,
            }
            for c in certificates
            for d in c.denials
        ],
    }
    if args.explain_fallbacks:
        doc["coverage"] = _vector_runtime_coverage(programs, args.cores)
    return doc


def cmd_analyze(args) -> int:
    benchmarks = (
        all_workload_names() if args.all
        else [args.benchmark] if args.benchmark
        else None
    )
    if benchmarks is None:
        print("acr-repro: error: analyze needs a benchmark or --all",
              file=sys.stderr)
        return 2

    failed = False
    docs = []
    for benchmark in benchmarks:
        doc = _analyze_one(benchmark, args)
        # A runtime fallback whose reason is not a registry rule means a
        # segment degraded without a certificate denial explaining it —
        # a certifier soundness gap, and a hard failure.
        unknown = sorted(
            key[len("fallback."):]
            for key, n in doc.get("coverage", {}).items()
            if key.startswith("fallback.")
            and n
            and key[len("fallback."):] not in RULES
        )
        if unknown:
            doc["unexplained_fallbacks"] = unknown
            failed = True
        if any(
            RULES[d["rule"]].severity is Severity.ERROR
            for d in doc["denials"]
            if d["rule"] in RULES
        ):
            failed = True
        docs.append(doc)

    if args.format == "json":
        print(json.dumps(docs if args.all else docs[0], indent=2))
        return 1 if failed else 0

    rows = []
    for doc in docs:
        row = [
            doc["benchmark"], doc["segments"], doc["safe"], doc["denied"],
        ] + [doc["denials_by_rule"].get(r, 0) for r in _CERT_RULES]
        if args.explain_fallbacks:
            cov = doc["coverage"]
            total = (
                cov.get("replayed_iterations", 0)
                + cov.get("fallback_iterations", 0)
            )
            row.append(
                f"{100.0 * cov.get('replayed_iterations', 0) / total:.1f}%"
                if total else "n/a"
            )
        rows.append(row)
    headers = ["benchmark", "segments", "safe", "denied", *_CERT_RULES]
    if args.explain_fallbacks:
        headers.append("replayed")
    print(format_table(headers, rows, title="vector-safety certificates"))

    if args.explain_fallbacks:
        for doc in docs:
            name = doc["benchmark"]
            for d in doc["denials"]:
                print(
                    f"{name}: core {d['core']} kernel {d['kernel_index']} "
                    f"({d['kernel']}): {d['rule']} "
                    f"instr {d['span'][0]}..{d['span'][1]} — {d['message']}"
                )
            for key in sorted(doc["coverage"]):
                if key.startswith("fallback.") and doc["coverage"][key]:
                    print(
                        f"{name}: runtime fallback "
                        f"{key[len('fallback.'):]}: "
                        f"{doc['coverage'][key]} iterations"
                    )
            if "unexplained_fallbacks" in doc:
                print(
                    f"{name}: UNEXPLAINED fallback reasons: "
                    f"{', '.join(doc['unexplained_fallbacks'])}"
                )
    return 1 if failed else 0


def cmd_trace(args) -> int:
    runner = _runner(args)
    tracer = RecordingTracer(capacity=args.limit)
    run = runner.run_traced(
        args.benchmark,
        runner.default_request(
            args.benchmark,
            args.config,
            num_checkpoints=args.checkpoints,
            error_count=args.errors,
        ),
        tracer=tracer,
    )
    write_chrome_trace(tracer.events, args.out)
    print(run.describe())
    print(f"\nchrome trace: {args.out} ({tracer.captured} events) — "
          f"load at https://ui.perfetto.dev")
    if args.jsonl:
        lines = write_jsonl(tracer.events, args.jsonl)
        print(f"event stream: {args.jsonl} ({lines} lines)")
    print(runner.progress.tracing_line())
    return 0


def cmd_stats(args) -> int:
    runner = _runner(args)
    tracer = (
        RecordingTracer(capacity=args.limit)
        if args.limit is not None
        else None
    )
    run = runner.run_traced(
        args.benchmark,
        runner.default_request(
            args.benchmark,
            args.config,
            num_checkpoints=args.checkpoints,
            error_count=args.errors,
        ),
        tracer=tracer,
        collect_metrics=True,
    )
    print(run.describe())
    print()
    print(run.obs.summary_table())
    if tracer is not None:
        print()
        print(runner.progress.tracing_line())
        if run.obs.events_dropped:
            print(
                f"warning: {run.obs.events_dropped} events dropped at "
                f"--limit {args.limit}; raise the cap to keep them",
                file=sys.stderr,
            )
    return 0


def cmd_inject(args) -> int:
    known = all_workload_names()
    unknown = [b for b in args.benchmarks if b not in known]
    if unknown:
        raise ValueError(
            f"unknown benchmark(s) {', '.join(unknown)} "
            f"(choose from {', '.join(known)})"
        )
    specs = build_trials(
        args.benchmarks or all_workload_names(),
        trials=args.trials,
        seed=args.seed,
        configs=args.configs,
        targets=args.targets,
        num_cores=args.cores,
        steps_per_interval=args.steps_per_interval,
        iters_per_step=args.iters_per_step,
        region_scale=args.scale,
        reps=args.reps,
        detection_latency_fraction=args.latency,
        defect=args.defect,
    )
    runner = ExperimentRunner(
        jobs=args.jobs, cache_dir=args.cache_dir,
        lock_stale_s=args.timeout,
        snapshots=not args.no_fork,
        snapshot_dir=args.snapshot_dir,
    )
    telemetry = _telemetry_for(args, runner)
    report = run_campaign(runner, specs)
    print(report.summary_table())
    for trial in report.divergent_trials()[:8]:
        d = trial.divergences[0]
        print(
            f"  diverged: {trial.spec.workload}/{trial.spec.config} "
            f"seed {trial.spec.seed} target {trial.injection.kind} — "
            f"address {d.address:#x} (interval {d.interval}, {d.phase}) "
            f"expected {d.expected:#x} got {d.actual:#x}"
            + (f" [{trial.detail}]" if trial.detail else "")
        )
    print(report.verdict_line())
    print(runner.progress.summary_line())
    if runner.progress.forked_trials:
        print(runner.progress.forked_line())
    _print_resilience(runner)
    _finish_telemetry(runner, telemetry)
    if args.json:
        report.write_json(args.json)
        print(f"json report: {args.json}")
    return 0 if report.ok else 1


def cmd_monitor(args) -> int:
    from repro.obs.telemetry import replay

    if args.attach is not None:
        return _monitor_attach(args.attach)
    if args.replay is None:
        print("acr-repro: error: monitor needs --replay or --attach",
              file=sys.stderr)
        return 2
    return replay(args.replay)


def _monitor_attach(socket_path: str) -> int:
    """Subscribe to a running daemon's frame stream and render it live —
    the remote flavour of the ``--live`` dashboard."""
    from repro.obs.telemetry import CampaignTelemetry, Monitor
    from repro.service import CampaignClient, ServiceError

    telemetry = CampaignTelemetry()
    Monitor(stream=sys.stderr).attach(telemetry)
    try:
        with CampaignClient(socket_path) as client:
            client.watch(telemetry.on_frame_dict)
    except ServiceError as exc:
        print(f"acr-repro: monitor: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        pass
    print(
        f"\nmonitor: {telemetry.frames} frames "
        f"({telemetry.malformed} malformed)",
        file=sys.stderr,
    )
    return 0


def _campaign_spec(args):
    """The CampaignSpec the ``submit`` flags describe (shared by the
    service and ``--solo`` paths, so both name the same key set)."""
    from repro.service import CampaignSpec

    return CampaignSpec(
        workloads=tuple(args.benchmarks or all_workload_names()),
        configs=tuple(args.configs),
        num_cores=args.cores,
        region_scale=args.scale,
        reps=args.reps,
        num_checkpoints=args.checkpoints,
        error_count=args.errors,
        threshold=args.threshold,
        memory_seed=args.seed,
        engine=args.engine,
    )


def _emit_report(report: Dict[str, Any], json_path: Optional[str]) -> None:
    """Render one campaign report; optionally persist it as canonical
    JSON.  Both the service and ``--solo`` paths go through this exact
    writer, so their files compare byte-equal with ``cmp``."""
    from repro.service.campaigns import render_report

    print(render_report(report))
    if json_path:
        from pathlib import Path as _Path

        _Path(json_path).write_text(
            json.dumps(report, sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
        print(f"json report: {json_path}")


def cmd_serve(args) -> int:
    from repro.service import CampaignDaemon

    daemon = CampaignDaemon(
        args.cache_dir,
        args.socket,
        jobs=args.jobs,
        lock_stale_s=args.timeout,
        echo=lambda line: print(f"serve: {line}", file=sys.stderr),
    )
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        daemon.stop()
    return 0


def cmd_submit(args) -> int:
    from repro.service import CampaignClient, campaign_report

    known = all_workload_names()
    unknown = [b for b in args.benchmarks if b not in known]
    if unknown:
        raise ValueError(
            f"unknown benchmark(s) {', '.join(unknown)} "
            f"(choose from {', '.join(known)})"
        )
    spec = _campaign_spec(args)
    if args.solo:
        if args.cache_dir is None:
            raise ValueError("--solo needs --cache-dir")
        runner = ExperimentRunner(
            num_cores=spec.num_cores, region_scale=spec.region_scale,
            reps=spec.reps, jobs=args.jobs, cache_dir=args.cache_dir,
            engine=spec.engine,
        )
        _emit_report(campaign_report(runner, spec), args.json)
        return 0
    if args.socket is None:
        raise ValueError("submit needs --socket (or --solo --cache-dir)")
    on_frame = None
    if args.stream:
        from repro.obs.telemetry import CampaignTelemetry, Monitor

        telemetry = CampaignTelemetry()
        Monitor(stream=sys.stderr).attach(telemetry)
        on_frame = telemetry.on_frame_dict
    from repro.service import ServiceError

    try:
        with CampaignClient(args.socket) as client:
            report = client.submit(
                spec, stream=args.stream, on_frame=on_frame
            )
    except ServiceError as exc:
        print(f"acr-repro: submit: {exc}", file=sys.stderr)
        return 2
    _emit_report(report, args.json)
    return 0


def cmd_shutdown(args) -> int:
    from repro.service import CampaignClient, ServiceError

    try:
        with CampaignClient(args.socket) as client:
            client.shutdown()
    except ServiceError as exc:
        print(f"acr-repro: shutdown: {exc}", file=sys.stderr)
        return 2
    print("daemon shutting down", file=sys.stderr)
    return 0


def cmd_baselines(args) -> int:
    runner = _runner(args)
    for config in ("Ckpt_NE", "ReCkpt_NE"):
        run = runner.run_default(args.benchmark, config)
        fs = full_snapshot_costs(run)
        h = hierarchical_costs(run, HierarchicalConfig(every_k=args.every_k))
        print(f"{config}:")
        print(f"  incremental log      : {run.total_checkpoint_bytes} B")
        print(f"  full snapshots would : {fs.total_bytes} B "
              f"(x{fs.inflation:.2f}), {fs.write_time_ns / 1e3:.1f} us")
        print(f"  level-2 drain (1/{args.every_k}): {h.drained_bytes} B in "
              f"{h.drain_time_ns / 1e3:.1f} us "
              f"over {h.drained_checkpoints} drains")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acr-repro",
        description="ACR (HPCA 2020) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="regenerate the paper's evaluation")
    _add_common(p)
    p.add_argument("--scalability", action="store_true")
    p.add_argument("--out", type=str, default=None,
                   help="also write each artifact to <out>/<name>.txt")
    _add_telemetry(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("run", help="run one configuration")
    p.add_argument("benchmark", choices=all_workload_names())
    p.add_argument("config", choices=[c for c in CONFIG_NAMES if c != "NoCkpt"])
    p.add_argument("--checkpoints", type=int, default=25)
    p.add_argument("--errors", type=int, default=1)
    _add_common(p)
    _add_telemetry(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="all configurations side by side")
    p.add_argument("benchmark", choices=all_workload_names())
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("slices", help="compiler-pass statistics")
    p.add_argument("benchmark", choices=all_workload_names())
    p.add_argument("--threshold", type=int, default=10)
    _add_common(p)
    p.set_defaults(func=cmd_slices)

    p = sub.add_parser(
        "lint",
        help="slice soundness verification (exit 1 on error findings)",
    )
    p.add_argument("benchmark", nargs="?", choices=all_workload_names(),
                   help="benchmark to verify (or use --all)")
    p.add_argument("--all", action="store_true",
                   help="verify every registered workload")
    p.add_argument("--threshold", type=int, default=None,
                   help="slice-length threshold (default: the workload's)")
    p.add_argument("--select", type=_rule_list, default=None,
                   metavar="RULES",
                   help="comma-separated rule-id prefixes to run "
                        "(e.g. ACR001,ACR003)")
    p.add_argument("--ignore", type=_rule_list, default=None,
                   metavar="RULES",
                   help="comma-separated rule-id prefixes to skip")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.add_argument("--no-oracle", action="store_true",
                   help="skip the differential recompute oracle (ACR008)")
    p.add_argument("--oracle-samples", type=_positive_int, default=3,
                   help="dynamic stores replayed per covered site")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule registry and exit")
    p.add_argument("--scale", type=float, default=0.5,
                   help="workload region scale (1.0 = full fidelity)")
    p.add_argument("--reps", type=int, default=None)
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "analyze",
        help="static vector-safety certification (ACR009-ACR012): prove "
             "trace segments safe to replay and attribute every runtime "
             "fallback (exit 1 on error findings or unexplained fallbacks)",
    )
    p.add_argument("benchmark", nargs="?", choices=all_workload_names(),
                   help="benchmark to certify (or use --all)")
    p.add_argument("--all", action="store_true",
                   help="certify every registered workload")
    p.add_argument("--cores", type=_positive_int, default=8,
                   help="cores (programs) per run")
    p.add_argument("--scale", type=float, default=0.5,
                   help="workload region scale (1.0 = full fidelity)")
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.add_argument("--explain-fallbacks", action="store_true",
                   help="list each denied segment, run the vector engine "
                        "and attribute every runtime fallback to a rule")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "trace",
        help="run one configuration with event tracing; export a "
             "Perfetto-loadable Chrome trace",
    )
    p.add_argument("benchmark", choices=all_workload_names())
    p.add_argument("config", nargs="?", default="ReCkpt_E",
                   choices=list(CONFIG_NAMES))
    p.add_argument("--checkpoints", type=int, default=25)
    p.add_argument("--errors", type=int, default=1)
    p.add_argument("--out", type=str, default="run.trace.json",
                   help="Chrome trace_event output path")
    p.add_argument("--jsonl", type=str, default=None,
                   help="also write the raw event stream as JSONL")
    p.add_argument("--limit", type=_positive_int, default=None,
                   help="cap captured events (earliest kept; rest counted "
                        "as dropped)")
    _add_common(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "stats",
        help="run one configuration with metrics collection and print "
             "the counter/histogram tables",
    )
    p.add_argument("benchmark", choices=all_workload_names())
    p.add_argument("config", nargs="?", default="ReCkpt_E",
                   choices=list(CONFIG_NAMES))
    p.add_argument("--checkpoints", type=int, default=25)
    p.add_argument("--errors", type=int, default=1)
    p.add_argument("--limit", type=_positive_int, default=None,
                   help="also record the event stream, capped at LIMIT "
                        "(earliest kept; the rest counted as dropped and "
                        "surfaced in the trace footer)")
    _add_common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "inject",
        help="fault-injection campaign: flip bits in live state, recover, "
             "verify bit-exactly (exit 1 on any divergence)",
    )
    # No ``choices=`` here: argparse rejects the empty default against a
    # choices list when ``nargs="*"``; cmd_inject validates names instead.
    p.add_argument("benchmarks", nargs="*", metavar="benchmark",
                   help="benchmarks to sweep (default: all)")
    p.add_argument("--trials", type=_positive_int, default=8,
                   help="trials per configuration (workloads and targets "
                        "rotate round-robin)")
    p.add_argument("--seed", type=int, default=0,
                   help="base seed; trial i uses seed + i")
    p.add_argument("--configs", type=_name_list(CONFIGS), default=CONFIGS,
                   metavar="NAMES", help="comma-separated subset of "
                                         f"{','.join(CONFIGS)}")
    p.add_argument("--targets", type=_name_list(TARGET_KINDS),
                   default=TARGET_KINDS, metavar="KINDS",
                   help="comma-separated subset of "
                        f"{','.join(TARGET_KINDS)}")
    p.add_argument("--cores", type=_positive_int, default=2)
    p.add_argument("--steps-per-interval", type=_positive_int, default=4)
    p.add_argument("--iters-per-step", type=_positive_int, default=8)
    p.add_argument("--scale", type=float, default=0.05,
                   help="workload region scale (trials favour small, "
                        "many-seed sweeps)")
    p.add_argument("--reps", type=int, default=4)
    p.add_argument("--latency", type=float, default=0.5,
                   help="detection latency as a fraction of the "
                        "checkpoint period (0..1)")
    p.add_argument("--defect", choices=DEFECTS, default=None,
                   help="seed a deliberate recovery defect — the campaign "
                        "should then FAIL with divergence provenance")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes for independent trials")
    p.add_argument("--cache-dir", type=str, default=None,
                   help="persist per-trial results here (content-"
                        "addressed, versioned)")
    p.add_argument("--snapshot-dir", type=str, default=None,
                   help="persist golden-run boundary snapshots here so "
                        "repeated campaigns skip their golden passes "
                        "(results stay bit-identical)")
    p.add_argument("--no-fork", action="store_true",
                   help="run every trial straight through from step 0 "
                        "instead of forking from golden snapshots "
                        "(bit-identical, slower; for debugging)")
    _add_timeout(p)
    _add_telemetry(p)
    p.add_argument("--json", type=str, default=None,
                   help="also write the machine-readable report here")
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser(
        "monitor",
        help="replay a recorded telemetry snapshot stream as the live "
             "dashboard would have rendered it, or attach to a running "
             "campaign daemon's live frame stream",
    )
    p.add_argument("--replay", type=str, default=None,
                   metavar="SNAPSHOTS",
                   help="telemetry snapshot JSONL (telemetry.jsonl beside "
                        "the result cache, or --snapshots PATH)")
    p.add_argument("--attach", type=str, default=None, metavar="SOCKET",
                   help="subscribe to the campaign daemon at this Unix "
                        "socket and render its frames live")
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser(
        "serve",
        help="run the campaign scheduler daemon: submissions over a Unix "
             "socket, results served from the disk cache (a cached key "
             "costs one read; concurrent misses simulate once)",
    )
    p.add_argument("--socket", type=str, required=True,
                   help="Unix socket path to listen on (keep it short: "
                        "AF_UNIX caps ~100 bytes)")
    p.add_argument("--cache-dir", type=str, required=True,
                   help="the durable result store (content-addressed, "
                        "versioned)")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes per campaign")
    _add_timeout(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "submit",
        help="run a campaign on the daemon (or --solo in-process) and "
             "print its deterministic report — byte-identical across "
             "both paths",
    )
    p.add_argument("benchmarks", nargs="*", metavar="benchmark",
                   help="workloads to sweep (default: all)")
    p.add_argument("--configs", type=_name_list(CONFIG_NAMES),
                   default=[c for c in CONFIG_NAMES if c != "NoCkpt"],
                   metavar="NAMES",
                   help="comma-separated subset of "
                        f"{','.join(CONFIG_NAMES)} (default: all but "
                        "NoCkpt; baselines run implicitly)")
    p.add_argument("--socket", type=str, default=None,
                   help="daemon Unix socket (required unless --solo)")
    p.add_argument("--solo", action="store_true",
                   help="run the same campaign in-process instead (for "
                        "comparing reports against the service)")
    p.add_argument("--stream", action="store_true",
                   help="stream the daemon's telemetry frames into a "
                        "live dashboard on stderr")
    p.add_argument("--checkpoints", type=int, default=25)
    p.add_argument("--errors", type=int, default=1)
    p.add_argument("--threshold", type=int, default=None,
                   help="slice-length threshold (default: per workload)")
    p.add_argument("--seed", type=int, default=0,
                   help="memory seed shared by every run in the campaign")
    p.add_argument("--scale", type=float, default=0.5,
                   help="workload region scale (1.0 = full fidelity)")
    p.add_argument("--cores", type=_positive_int, default=8)
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="worker processes (--solo only; the daemon's "
                        "--jobs governs service runs)")
    p.add_argument("--cache-dir", type=str, default=None,
                   help="result cache for --solo runs")
    p.add_argument("--engine", choices=ENGINES, default="interp")
    p.add_argument("--json", type=str, default=None,
                   help="also write the report as canonical JSON "
                        "(byte-identical across service/solo paths)")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("shutdown", help="stop a running campaign daemon")
    p.add_argument("--socket", type=str, required=True,
                   help="the daemon's Unix socket")
    p.set_defaults(func=cmd_shutdown)

    p = sub.add_parser("baselines", help="what-if checkpointing baselines")
    p.add_argument("benchmark", choices=all_workload_names())
    p.add_argument("--every-k", type=int, default=5)
    _add_common(p)
    p.set_defaults(func=cmd_baselines)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"acr-repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
