"""The performance ledger: end-to-end and per-layer metrics of the
pipelines people run, with every output checked.

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S \\
        --trace 0|1                      # one workload, one JSON line last
    python3 benchmarks/ledger/run.py [--seed N] [--trace] [--out F]
                                         # every workload
    python3 benchmarks/ledger/run.py --smoke --trace   # tiny recipes
    python3 benchmarks/ledger/run.py --profile W       # cProfile top-25
    python3 benchmarks/ledger/run.py compare A.jsonl B.jsonl
    python3 benchmarks/ledger/run.py record            # twin checksums

Each pass of a workload runs in its own fresh Python process
(``pipeline.py``).  A run measures ``PASSES`` passes; filler passes
follow only if those do not yet add up to ``--seconds``, and are only
output-checked.  Every reported time is corrected for the host's speed,
measured by a reference loop timed all through each pass
(``pipeline.HostSpeed``): a shared host can run the same code up to 2x
slower for minutes at a time.  ``setup_s`` is the median of the passes'
set-ups and ``EXTRA_SETUPS`` set-up-only processes, corrected by the
run's median host speed.  The latency metrics take, for each op, the
median of the run's passes (ops are matched by op id).  The ``--trace`` run is
separate from the timed runs: it wraps the program's public callables
from outside (``spans.py``) and reports per-layer self time, calls and
counts instead of the end-to-end metrics.

This script imports nothing from the program, so in a directory without
``src/`` it fails fast, before printing any result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
LAYERS = HERE / "layers.json"
EXPECTED = HERE / "expected.json"
#: Scratch space inside the checkout (listed in .gitignore).
LEDGER_DIR = ROOT / ".ledger"
WORKLOADS = ("report-cold", "report-warm", "fig6-vector", "inject-forked",
             "service-mixed")
#: Passes a run measures, per recipe set.
PASSES = {"full": 3, "smoke": 1}
#: Set-up-only processes a run starts after its passes, per recipe set:
#: ``setup_s`` is the median of these and the passes' set-ups.
EXTRA_SETUPS = {"full": 2, "smoke": 0}
#: Every process this script starts must end within this many seconds
#: of the run's start.
RUN_DEADLINE_S = 170.0


class LedgerError(RuntimeError):
    """A pass process failed: the run prints no result."""


# ------------------------------------------------------------ processes --
def spawn(workload: str, seed: int, mode: str, work: Path, shared: Path,
          deadline: float, *flags: str) -> Tuple[float, Dict[str, Any]]:
    """Run one ``pipeline.py`` process; returns its set-up seconds
    (process start to its ready line) and its final record.  ``work``
    is removed when the process ends, ``shared`` is the caller's."""
    cmd = [sys.executable, str(HERE / "pipeline.py"), "--workload",
           workload, "--seed", str(seed), "--mode", mode, "--work",
           str(work), "--shared", str(shared), *flags]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise LedgerError("run deadline passed")
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)

    def kill_group() -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(remaining, kill_group)
    watchdog.start()
    try:
        assert proc.stdout is not None
        first = proc.stdout.readline()
        setup = perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None or proc.returncode != 0:
            # Also stops whatever a failed pass left in its process
            # group, such as the service daemon.
            kill_group()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    if code != 0:
        raise LedgerError(f"{workload}: pass process exited with {code}")
    lines = [json.loads(x) for x in (first + rest).splitlines() if x.strip()]
    ready = bool(lines) and lines[0].get("ready") is True
    if not ready and "--twin" not in flags:
        raise LedgerError(f"{workload}: pass process never became ready")
    return setup, lines[-1]


def run_workload(workload: str, seed: int, seconds: float, mode: str,
                 trace: bool, deadline: float,
                 spans_out: Optional[Path] = None) -> Dict[str, Any]:
    """``PASSES[mode]`` passes, then filler passes until the timed
    regions cover ``seconds``.  Metrics come from the first
    ``PASSES[mode]`` only, so a faster program is measured by the same
    statistic as a slower one; filler passes are only output-checked."""
    setups: List[float] = []
    passes: List[Dict[str, Any]] = []
    base = LEDGER_DIR / "work" / f"{os.getpid()}-{workload}"
    try:
        while len(passes) < PASSES[mode] or (
                mode == "full" and sum(p["wall_s"] for p in passes) < seconds):
            flags = ["--trace"] if trace else []
            if not passes:
                flags.append("--spot-check")
            if spans_out is not None:
                flags += ["--spans-out",
                          str(spans_out.with_suffix(f".{len(passes)}.json"))]
            setup, record = spawn(workload, seed, mode,
                                  base / f"pass{len(passes)}", base / "shared",
                                  deadline, *flags)
            setups.append(setup)
            passes.append(record)
        # After the passes, so report-warm's shared cache is already full.
        # A traced run reports no set-up time.
        for k in range(0 if trace else EXTRA_SETUPS[mode]):
            setup, _ = spawn(workload, seed, mode, base / f"setup{k}",
                             base / "shared", deadline, "--setup-only")
            setups.append(setup)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    if len({p["checksum"] for p in passes}) > 1:
        # The passes disagree: every op of the run failed.
        for p in passes:
            p["correct"] = False
            p["failed_ops"] = len(p["latencies"])
    measured = setups[: PASSES[mode]] + setups[len(passes):]
    return {"workload": workload, "seed": seed, "mode": mode,
            "trace": trace, "setups": measured,
            "passes": passes[: PASSES[mode]], "fillers": passes[PASSES[mode]:]}


# -------------------------------------------------------------- metrics --
def tail_percentile(n: int) -> int:
    """The highest percentile with at least ten of ``n`` samples beyond
    it; 100 (the maximum) when ``n`` is too small for one."""
    return math.floor(100 * (n - 10) / n) if n >= 20 else 100


def percentile(values: List[float], p: int) -> float:
    if p >= 100 or len(values) < 2:
        return max(values)
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(run: Dict[str, Any]) -> Dict[str, float]:
    """The end-to-end metrics, every time in it corrected for the host's
    speed during its pass (see ``pipeline.reference_loop``)."""
    passes = run["passes"]
    speed = [q["host_speed"] for q in passes]
    n = len(passes[0]["latencies"])
    # Op i does the same work in every pass: keep its median time, so
    # one pass the correction missed, faster or slower, does not count.
    lat = [statistics.median(q["latencies"][i] * s
                             for q, s in zip(passes, speed))
           for i in range(n)]
    p = tail_percentile(n)
    run["tail"] = {"percentile": p, "samples": n}
    return {
        "setup_s": statistics.median(run["setups"]) * statistics.median(speed),
        "ops_per_s": passes[0]["threads"] * n / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": percentile(lat, p) * 1e3,
        "peak_rss_mb": statistics.median(q["rss_mb"] for q in passes),
    }


def merged_trace(record: Dict[str, Any]) -> Dict[str, Any]:
    """Client-side and daemon-side totals of one pass, summed."""
    out: Dict[str, Any] = {"self_s": {}, "calls": {}, "counts": {},
                           "by_label": {}, "absent": []}
    for part in (record.get("trace"), record.get("daemon_trace")):
        if not part:
            continue
        for key in ("self_s", "calls", "counts"):
            for name, v in part[key].items():
                out[key][name] = out[key].get(name, 0) + v
        for label, row in part["by_label"].items():
            dst = out["by_label"].setdefault(label, {})
            for name, v in row.items():
                dst[name] = dst.get(name, 0.0) + v
        out["absent"] = sorted(set(out["absent"]) | set(part["absent"]))
    for name, v in record.get("counts", {}).items():
        out["counts"][name] = out["counts"].get(name, 0) + v
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_values(tr: Dict[str, Any]) -> Dict[str, float]:
    """Every per-layer metric of one traced pass."""
    c, calls = tr["counts"], tr["calls"]
    replayed = c.get("sim.vector.replayed_iterations", 0)
    fallback = c.get("sim.vector.fallback_iterations", 0)
    values = {
        "sim.vector.plans_built": c.get("sim.vector.plans_built", 0),
        "sim.vector.replay_ratio": _ratio(replayed, replayed + fallback),
        "sim.vector.fallback_iterations": fallback,
        "sim.instructions": c.get("sim.instructions", 0),
        "cache.hit_ratio": _ratio(c.get("cache.hits", 0),
                                  c.get("cache.lookups", 0)),
        "cache.bytes_written": c.get("cache.bytes_written", 0),
        "inject.trials_per_golden": _ratio(calls.get("inject.trial", 0),
                                           calls.get("inject.golden", 0)),
        "service.store.shard_hit_ratio": _ratio(
            c.get("service.store.shard_hits", 0),
            c.get("service.store.gets", 0)),
        "service.wire.bytes": c.get("service.wire.bytes", 0),
        "service.dedupe_ratio": _ratio(c.get("service.unique_keys", 0),
                                       c.get("service.simulations", 0)),
    }
    for span, v in tr["self_s"].items():
        values[f"{span}.self_s"] = v
    for span, v in calls.items():
        values[f"{span}.calls"] = v
    return values


def per_layer(run: Dict[str, Any], names: List[str]) -> Dict[str, float]:
    """Median over passes of each listed per-layer metric; a metric
    whose wrapped targets no longer exist reads 0 and is listed in
    ``run["absent"]``."""
    traces = [merged_trace(p) for p in run["passes"]]
    rows = [layer_values(t) for t in traces]
    run["absent"] = sorted(set(names) & set(traces[0]["absent"]))
    return {n: statistics.median(r.get(n, 0) for r in rows) for n in names}


# ------------------------------------------------------------- printing --
def print_layer_table(run: Dict[str, Any], span_layer: Dict[str, str]) -> None:
    """Self seconds, calls and share of the pass's busy time per layer
    (median pass), plus what no layer span covers."""
    walls = [p["wall_s"] for p in run["passes"]]
    k = walls.index(sorted(walls)[(len(walls) - 1) // 2])
    record = run["passes"][k]
    tr = merged_trace(record)
    busy = record["wall_s"] * record["threads"]
    rows = sorted(tr["self_s"].items(), key=lambda kv: -kv[1])
    print(f"\n{run['workload']}: per-layer self time, traced pass "
          f"{record['wall_s']:.3f} s x {record['threads']} thread(s) "
          f"= {busy:.3f} s busy")
    print(f"  {'layer':20s} {'span':28s} {'self_s':>9s} {'calls':>8s} "
          f"{'share':>7s}")
    for span, s in rows:
        print(f"  {span_layer.get(span, '?'):20s} {span:28s} {s:9.4f} "
              f"{tr['calls'].get(span, 0):8d} {100 * s / busy:6.2f}%")
    rest = busy - sum(tr["self_s"].values())
    print(f"  {'(unattributed)':49s} {rest:9.4f} {'':8s} "
          f"{100 * rest / busy:6.2f}%")
    by_label = tr["by_label"]
    if run["workload"] == "fig6-vector" and by_label:
        cols = ("verify.certify_run", "sim.vector.plan", "sim.vector.step",
                "sim.run")
        print("\n  per NAS workload self time (s):")
        print("  " + f"{'workload':10s}" + "".join(f"{c:>20s}" for c in cols))
        for label in sorted(by_label):
            print("  " + f"{label:10s}" + "".join(
                f"{by_label[label].get(c, 0.0):20.4f}" for c in cols))


def load_spec() -> Tuple[Dict[str, Any], Dict[str, str]]:
    """BENCHMARK.json, and the layer of each span from ``layers.json``."""
    bench = json.loads(BENCHMARK.read_text())
    span_layer = {
        name[: -len(".self_s")]: group["layer"]
        for group in json.loads(LAYERS.read_text())["groups"]
        for name in group["metrics"] if name.endswith(".self_s")
    }
    return bench, span_layer


def result_line(run: Dict[str, Any],
                metrics: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    passes = run["passes"] + run["fillers"]
    return {
        "correct": all(p["correct"] for p in passes),
        "attempted": sum(len(p["latencies"]) for p in passes),
        "failed": sum(p["failed_ops"] for p in passes),
        "metrics": metrics,
    }


def summarize(run: Dict[str, Any], bench: Dict[str, Any],
              span_layer: Dict[str, str]) -> Dict[str, Dict[str, Any]]:
    """Print one run's metrics; returns them in the result-line form."""
    every = run["passes"] + run["fillers"]
    gates = sorted({p["gate"] for p in every})
    ok = all(p["correct"] for p in every)
    print(f"\n{run['workload']} (seed {run['seed']}, {run['mode']}, "
          f"{len(run['passes'])} pass(es) + {len(run['fillers'])} filler): "
          f"outputs {'match' if ok else 'MISMATCH'} ({'/'.join(gates)} gate)")
    if run["trace"]:
        names = [m["name"] for m in bench["per_layer"]]
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        values = per_layer(run, names)
        print_layer_table(run, span_layer)
        if run["absent"]:
            print(f"  absent (wrapped target no longer exists): "
                  f"{', '.join(run['absent'])}")
        return {n: {"value": values[n], "unit": units[n]} for n in names}
    values = end_to_end(run)
    walls = ", ".join(f"{p['wall_s']:.3f}" for p in run["passes"])
    speeds = ", ".join(f"{p['host_speed']:.3f}" for p in run["passes"])
    print(f"  pass wall times (s, as measured): {walls}")
    print(f"  host speed per pass (nominal 1): {speeds}")
    metrics = {}
    for m in bench["end_to_end"]:
        name, v = m["name"], values[m["name"]]
        note = ""
        if name == "op_tail_ms":
            note = (f"  (p{run['tail']['percentile']} of "
                    f"{run['tail']['samples']} ops)")
        print(f"  {name:12s} {v:14.4f} {m['unit']}{note}")
        metrics[name] = {"value": v, "unit": m["unit"]}
    return metrics


def append_out(path: Path, run: Dict[str, Any], line: Dict[str, Any]) -> None:
    doc = {k: run[k] for k in ("workload", "seed", "mode", "trace",
                               "setups")}
    doc.update(line)
    doc["time"] = time.time()
    doc["tail"] = run.get("tail")
    doc["absent"] = run.get("absent", [])
    doc["passes"] = [
        {k: v for k, v in p.items() if k not in ("latencies", "profile")}
        for p in run["passes"]
    ]
    with path.open("a") as fh:
        fh.write(json.dumps(doc, sort_keys=True) + "\n")


# -------------------------------------------------------------- compare --
def _better(a: float, b: float, better: str) -> bool:
    """Whether ``b`` reads better than ``a``."""
    return b < a if better == "lower" else b > a


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(argv: List[str]) -> int:
    """Parent (A) against change (B), per workload and end-to-end metric,
    by the ledger's rules: a win needs at least 9 of 10 pairs and a
    median gap wider than A's interquartile range; a regression is a
    median worse by more than the metric's bound; a spread wider than
    the bound is ``unresolved`` unless every B run beats every A run."""
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    bench, _ = load_spec()
    sides = []
    for path in (args.a, args.b):
        runs: Dict[str, List[Dict[str, Any]]] = {}
        for line in path.read_text().splitlines():
            if not line.strip():
                continue
            doc = json.loads(line)
            if doc["trace"] or doc["mode"] != "full":
                continue
            runs.setdefault(doc["workload"], []).append(doc)
        sides.append(runs)
    verdicts = []
    print(f"{'workload':14s} {'metric':12s} {'A median [q1,q3]':>30s} "
          f"{'B median [q1,q3]':>30s} {'delta':>8s} {'wins':>6s}  verdict")
    for wl in WORKLOADS:
        a_runs, b_runs = sides[0].get(wl, []), sides[1].get(wl, [])
        n = min(len(a_runs), len(b_runs))
        if n == 0:
            continue
        for m in bench["end_to_end"]:
            name, better, bound = m["name"], m["better"], m["bound"]
            a = [r["metrics"][name]["value"] for r in a_runs[:n]]
            b = [r["metrics"][name]["value"] for r in b_runs[:n]]
            qa, qb = _quartiles(a), _quartiles(b)
            wins = sum(_better(x, y, better) for x, y in zip(a, b))
            delta = (qb[1] - qa[1]) / qa[1]
            worse = delta if better == "lower" else -delta
            spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
            all_better = all(_better(x, y, better) for x in a for y in b)
            if n < 10:
                verdict = "too-few-pairs"
            elif spread > bound and not all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regression"
            elif (wins >= 0.9 * n and _better(qa[1], qb[1], better)
                  and abs(qb[1] - qa[1]) > qa[2] - qa[0]):
                verdict = "win"
            else:
                verdict = "no-change"
            verdicts.append(verdict)
            cells = [f"{q[1]:.4f} [{q[0]:.4g},{q[2]:.4g}]" for q in (qa, qb)]
            print(f"{wl:14s} {name:12s} {cells[0]:>30s} {cells[1]:>30s} "
                  f"{100 * delta:+7.2f}% {wins:3d}/{n:<2d}  {verdict}")
    return 1 if {"regression", "unresolved"} & set(verdicts) else 0


# --------------------------------------------------------------- record --
def record(argv: List[str]) -> int:
    """Write ``expected.json``: each workload's results checksum at
    seeds 0 and 1, computed by its bit-identity twin."""
    argparse.ArgumentParser(prog="run.py record").parse_args(argv)
    table: Dict[str, Dict[str, Dict[str, str]]] = {}
    deadline = time.monotonic() + 3600
    base = LEDGER_DIR / "work" / f"{os.getpid()}-record"
    for mode in PASSES:
        for wl in WORKLOADS:
            for seed in (0, 1):
                _, doc = spawn(wl, seed, mode, base / "twin", base / "shared",
                               deadline, "--twin")
                table.setdefault(mode, {}).setdefault(wl, {})[str(seed)] = \
                    doc["checksum"]
                print(f"{mode:6s} {wl:14s} seed {seed}: {doc['checksum']}")
    shutil.rmtree(base, ignore_errors=True)
    EXPECTED.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    return 0


# ----------------------------------------------------------------- main --
def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # A terminated run unwinds through spawn(), which kills the pass's
    # process group; pass processes run in sessions of their own.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"ledger: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    if argv[:1] == ["record"]:
        return record(argv[1:])
    bench, span_layer = load_spec()
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", type=Path, default=None,
                        help="append one JSON record per workload run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny recipes, one pass each")
    parser.add_argument("--profile", choices=WORKLOADS, default=None,
                        help="cProfile top-25 of one pass of a workload")
    args = parser.parse_args(argv)
    mode = "smoke" if args.smoke else "full"
    try:
        if args.profile:
            base = LEDGER_DIR / "work" / f"{os.getpid()}-profile"
            try:
                _, rec = spawn(args.profile, args.seed, mode, base / "pass",
                               base / "shared",
                               time.monotonic() + RUN_DEADLINE_S, "--profile")
            finally:
                shutil.rmtree(base, ignore_errors=True)
            print(rec["profile"])
            return 0
        if args.workload:
            return one(args, mode, bench, span_layer)
        return every(args, mode, bench, span_layer)
    except LedgerError as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 2


def measure(args, workload: str, mode: str, trace: bool, bench,
            span_layer) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """One run of one workload: printed, appended to ``--out``."""
    spans_out = None
    if trace:
        spans_out = LEDGER_DIR / "trace" / f"{workload}-seed{args.seed}"
        spans_out.parent.mkdir(parents=True, exist_ok=True)
    run = run_workload(workload, args.seed, args.seconds, mode, trace,
                       time.monotonic() + RUN_DEADLINE_S, spans_out)
    line = result_line(run, summarize(run, bench, span_layer))
    if args.out:
        append_out(args.out, run, line)
    return run, line


def one(args, mode, bench, span_layer) -> int:
    """One workload, its result JSON as the last line of stdout."""
    _, line = measure(args, args.workload, mode, bool(args.trace), bench,
                      span_layer)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def every(args, mode, bench, span_layer) -> int:
    """Every workload untraced and, with ``--trace``, traced after it;
    the tracing overhead compares the two runs' ``ops_per_s``."""
    ok = True
    summary: Dict[str, Any] = {}
    for wl in WORKLOADS:
        run, line = measure(args, wl, mode, False, bench, span_layer)
        ok &= line["correct"]
        summary[wl] = line
        if args.trace:
            traced, tline = measure(args, wl, mode, True, bench, span_layer)
            ok &= tline["correct"]
            overhead = (end_to_end(run)["ops_per_s"]
                        / end_to_end(traced)["ops_per_s"] - 1)
            print(f"  tracing overhead: {100 * overhead:+.2f}% "
                  f"(untraced ops_per_s / traced - 1)")
            summary[wl]["trace_overhead"] = overhead
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
