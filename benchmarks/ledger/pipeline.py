"""One pass of one ledger workload, in a fresh process.

``run.py`` starts this script once per pass.  It sets the workload up,
prints ``{"ready": true}`` on its protocol channel (the parent times
process start to this line as the pass's set-up), runs one timed pass as
a closed loop, checks the pass's outputs, and prints one JSON record.
Anything the program itself prints goes to stderr, so the protocol
channel carries exactly those two lines.

The workloads drive the program only through public entry points:
``ExperimentRunner``, ``paper_run_matrix``/``generate_report``,
``fig6_time_overhead``, ``build_trials``/``run_trials``,
``CampaignClient``/``CampaignSpec`` and ``acr-repro serve``.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import io
import json
import os
import pstats
import random
import resource
import statistics
import subprocess
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402  (benchmark-local module beside this file)
from repro.experiments.configs import ConfigRequest  # noqa: E402
from repro.experiments.figures import fig6_time_overhead  # noqa: E402
from repro.experiments.report import (  # noqa: E402
    generate_report,
    paper_run_matrix,
)
from repro.experiments.runner import ExperimentRunner  # noqa: E402
from repro.inject.campaign import build_trials  # noqa: E402
from repro.service.campaigns import CampaignSpec, campaign_report  # noqa: E402
from repro.service.client import (  # noqa: E402
    CampaignClient,
    ServiceError,
    wait_for_socket,
)
from repro.workloads.registry import all_workload_names  # noqa: E402

EXPECTED = HERE / "expected.json"
CKPT_CONFIGS = ("Ckpt_NE", "Ckpt_E", "ReCkpt_NE", "ReCkpt_E")

#: Benchmark recipes: the work of one pass.  Sizes keep a run near 11 s
#: on a 2-core host at its fastest, and near 20 s when it runs at half
#: that speed.  Below ``scale`` 0.125 every NAS region sits at its floor
#: (one word per site), so there ``reps`` and ``cores`` set the work.
RECIPES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "report-cold": dict(cores=2, scale=0.03, reps=1, engine="interp"),
        "report-warm": dict(cores=2, scale=0.01, reps=1, engine="vector",
                            regens=25),
        "fig6-vector": dict(cores=8, scale=0.2, reps=4, engine="vector"),
        "inject-forked": dict(trials=32, cores=2, scale=0.2, reps=16,
                              engine="interp"),
        "service-mixed": dict(clients=2, submissions=32,
                              workloads=("cg", "is"), cores=2, scale=0.05,
                              reps=4),
    },
    "smoke": {
        "report-cold": dict(cores=2, scale=0.001, reps=1, engine="interp"),
        "report-warm": dict(cores=2, scale=0.001, reps=1, engine="vector",
                            regens=3),
        "fig6-vector": dict(cores=2, scale=0.05, reps=2, engine="vector"),
        "inject-forked": dict(trials=8, cores=2, scale=0.05, reps=4,
                              engine="interp"),
        "service-mixed": dict(clients=2, submissions=5,
                              workloads=("cg", "is"), cores=2, scale=0.02,
                              reps=4),
    },
}


def digest(results: Any) -> str:
    """sha256 of the canonical JSON form of ``results``."""
    text = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: The reference loop's time on the host the ledger was tuned on (a
#: shared 2-vCPU Xeon VM) when that host runs at its fastest.
NOMINAL_REF_S = 0.0003
#: How often the host-speed sampler times the reference loop.
SAMPLE_EVERY_S = 0.01


def reference_loop() -> int:
    """Fixed pure-Python work that shares no code with the program."""
    s = 0
    for i in range(5_000):
        s += i * i % 7
    return s


class HostSpeed:
    """How fast the host runs during a pass, from ``reference_loop``
    timed every ``SAMPLE_EVERY_S`` by a thread of its own.

    On a shared host the same code runs up to 2x slower for minutes at a
    time, and process CPU time slows with it; the speed also swings
    within a second.  Sampling all through the pass, not only between
    ops, keeps a pass of a few long ops from being corrected by a few
    moments.  The sampler takes about 3% of one core."""

    def __init__(self) -> None:
        self.refs: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while True:
            start = perf_counter()
            reference_loop()
            self.refs.append(perf_counter() - start)
            if self._stop.wait(SAMPLE_EVERY_S):
                return

    def speed(self) -> float:
        """1.0 when the host ran at its nominal speed, 0.5 at half."""
        return NOMINAL_REF_S / statistics.median(self.refs)


class LoadGen:
    """Closed-loop op timing: each thread issues its next op only after
    the previous one returned."""

    def __init__(self, rec: Optional[spans.Recorder]) -> None:
        self.rec = rec
        self.samples: List[tuple] = []
        self.failed = 0
        self._lock = threading.Lock()

    def latencies(self) -> List[float]:
        """Latencies in op-id order, so op i of every pass of a run is
        the same op even when several threads issue them."""
        return [lat for _, lat in sorted(self.samples)]

    def op(self, op_id: Any, label: Optional[str], call: Callable[[], Any],
           check: Optional[Callable[[Any], bool]] = None) -> Any:
        if self.rec is not None:
            self.rec.set_op(op_id, label)
        start = perf_counter()
        try:
            result = call()
        except Exception:  # a failed op is counted, the loop goes on
            traceback.print_exc()
            result, ok = None, False
        else:
            ok = True
        self.samples.append((op_id, perf_counter() - start))
        if ok and check is not None and not check(result):
            ok = False
        if not ok:
            with self._lock:
                self.failed += 1
        return result


# ------------------------------------------------------------ workloads --
class Workload:
    """Set-up, one timed pass, outputs.  ``results()`` is the canonical
    JSON-able outcome whose sha256 the checksum gate compares.  Op i
    does the same work in every pass of a run, so its median time
    across the passes measures it.  ``work`` is this pass's scratch directory;
    ``shared`` lives for the whole run."""

    #: True when the seed only reorders ops, so every seed's results
    #: (and checksum) are the same.
    seed_independent = True
    threads = 1

    def __init__(self, recipe: Dict[str, Any], seed: int, work: Path,
                 shared: Path, traced: bool = False):
        self.r = recipe
        self.seed = seed
        self.work = work
        self.shared = shared
        self.traced = traced

    def runner(self, **kw: Any) -> ExperimentRunner:
        return ExperimentRunner(
            num_cores=self.r["cores"], region_scale=self.r["scale"],
            reps=self.r["reps"], engine=kw.pop("engine", self.r["engine"]),
            **kw,
        )

    def setup(self) -> None:
        pass

    def run(self, gen: LoadGen) -> None:
        raise NotImplementedError

    def results(self) -> Any:
        raise NotImplementedError

    def twin(self) -> Any:
        """The results of the workload's bit-identity twin."""
        raise NotImplementedError

    def spot_check(self) -> bool:
        """A cheap twin comparison for seeds without a recorded sum."""
        return True

    def finish(self) -> None:
        """Collect what the checks need once the timed pass is over."""

    def counts(self) -> Dict[str, float]:
        """Per-layer counts measured by the load generator itself."""
        return {}

    def close(self) -> None:
        pass


def by_workload(pairs, seed: int) -> list:
    """``pairs`` with the NAS workloads in seeded order, each workload's
    own pairs kept in their given order.  Which op pays a workload's
    program build, baseline and compiles then does not depend on the
    seed, so neither does the set of op costs."""
    groups: Dict[str, list] = {}
    for wl, req in pairs:
        groups.setdefault(wl, []).append((wl, req))
    order = sorted(groups)
    random.Random(seed).shuffle(order)
    return [pair for wl in order for pair in groups[wl]]


def _run_records(runner: ExperimentRunner, pairs) -> List[list]:
    rows = [
        [wl, [list(kv) for kv in req.canonical_key()],
         runner.run(wl, req).to_dict()]
        for wl, req in pairs
    ]
    rows.sort(key=lambda row: (row[0], json.dumps(row[1])))
    return rows


def _artifacts(out: Path) -> Dict[str, str]:
    """Rendered report artifacts, minus the timing-bearing summary."""
    return {
        p.stem: p.read_text()
        for p in sorted(out.glob("*.txt"))
        if p.stem != "run_summary"
    }


class ReportCold(Workload):
    """The full paper matrix resolved pair by pair into an empty cache,
    then ``generate_report`` assembled from the memo."""

    def setup(self) -> None:
        self.rn = self.runner(cache_dir=self.work / "cache")
        self.pairs = by_workload(paper_run_matrix(self.rn), self.seed)

    def run(self, gen: LoadGen) -> None:
        for i, (wl, req) in enumerate(self.pairs):
            gen.op(i, wl, lambda: self.rn.run(wl, req))
        generate_report(self.rn, stream=io.StringIO(),
                        out_dir=self.work / "out")

    def results(self) -> Any:
        return {"runs": _run_records(self.rn, paper_run_matrix(self.rn)),
                "artifacts": _artifacts(self.work / "out")}

    def twin(self) -> Any:
        self.rn = self.runner(engine="vector")
        self.rn.run_many(paper_run_matrix(self.rn))
        generate_report(self.rn, stream=io.StringIO(),
                        out_dir=self.work / "out")
        return self.results()


class ReportWarm(Workload):
    """Report regenerations served entirely from a warm disk cache.

    The cache lives for the whole run: the first pass's set-up fills it,
    and every later pass's set-up finds all of it there."""

    def setup(self) -> None:
        fill = self.runner(cache_dir=self.shared / "cache")
        pairs = paper_run_matrix(fill)
        random.Random(self.seed).shuffle(pairs)
        fill.run_many(pairs)

    def run(self, gen: LoadGen) -> None:
        for i in range(self.r["regens"]):
            def regenerate(out=self.work / f"out{i}"):
                rn = self.runner(cache_dir=self.shared / "cache")
                generate_report(rn, stream=io.StringIO(), out_dir=out)
                return rn
            self.rn = gen.op(i, None, regenerate)

    def results(self) -> Any:
        first = _artifacts(self.work / "out0")
        for i in range(1, self.r["regens"]):
            if _artifacts(self.work / f"out{i}") != first:
                raise ValueError(f"regeneration {i} differs from the first")
        return {"runs": _run_records(self.rn, paper_run_matrix(self.rn)),
                "artifacts": first}

    def twin(self) -> Any:
        self.rn = self.runner()
        self.rn.run_many(paper_run_matrix(self.rn))
        generate_report(self.rn, stream=io.StringIO(),
                        out_dir=self.work / "out0")
        return {"runs": _run_records(self.rn, paper_run_matrix(self.rn)),
                "artifacts": _artifacts(self.work / "out0")}


class Fig6Vector(Workload):
    """The fig6 sweep (NoCkpt + four checkpointed configs per NAS
    workload) on the vector engine, without a cache."""

    def setup(self) -> None:
        self.rn = self.runner()
        self.pairs = by_workload([
            (wl, req)
            for wl in self.rn.workloads()
            for req in [ConfigRequest("NoCkpt")] + [
                self.rn.default_request(wl, cfg) for cfg in CKPT_CONFIGS
            ]
        ], self.seed)

    def run(self, gen: LoadGen) -> None:
        for i, (wl, req) in enumerate(self.pairs):
            gen.op(i, wl, lambda: self.rn.run(wl, req))
        self.figure = fig6_time_overhead(self.rn).render()

    def results(self) -> Any:
        return {"runs": _run_records(self.rn, self.pairs),
                "figure": self.figure}

    def twin(self) -> Any:
        self.setup()
        self.rn = self.runner(engine="interp")
        self.rn.run_many(self.pairs)
        self.figure = fig6_time_overhead(self.rn).render()
        return self.results()


class InjectForked(Workload):
    """A BER+ACR fault-injection campaign, each trial forked from the
    golden pass's boundary snapshots.

    The run's seed changes nothing here.  The campaign seed picks every
    trial's injection step, so it would change the work.  Nor can the
    seed reorder the trials: every golden pass's snapshots stay in
    memory, so a trial's cost grows with the number of golden passes
    before it (the first ACR trial of a NAS workload took 180 ms at the
    front of a pass and 350 ms at its end)."""

    def setup(self) -> None:
        self.specs = build_trials(
            all_workload_names(), self.r["trials"], seed=0,
            num_cores=self.r["cores"], region_scale=self.r["scale"],
            reps=self.r["reps"],
        )
        self.rn = ExperimentRunner(num_cores=self.r["cores"],
                                   engine=self.r["engine"])
        self.trials: List[Any] = []

    def run(self, gen: LoadGen) -> None:
        for i, spec in enumerate(self.specs):
            res = gen.op(
                i, spec.workload, lambda: self.rn.run_trials([spec])[0],
                check=lambda t: t.outcome == "recovered-exact",
            )
            if res is not None:
                self.trials.append(res)

    def results(self) -> Any:
        rows = [t.to_dict() for t in self.trials]
        rows.sort(key=lambda d: json.dumps(d["spec"], sort_keys=True))
        return rows

    def twin(self) -> Any:
        self.setup()
        straight = ExperimentRunner(num_cores=self.r["cores"],
                                    engine=self.r["engine"], snapshots=False)
        self.trials = straight.run_trials(self.specs)
        return self.results()


class ServiceMixed(Workload):
    """Two clients, each on its own connection to one ``acr-repro
    serve`` daemon; one submission in five per client names a fresh key
    set, and the clients are staggered so one reads what the other
    writes.

    The clients run in lockstep: both issue submission i together.
    Without that, which client simulates a shared key set, and which
    waits on its lease, would change from pass to pass, and so would
    each op's cost.  With it, client 1 (two submissions ahead) writes
    every fresh key set while client 0 reads the previous one, and
    client 0 reads it two submissions later.  Key set 0 is fresh for
    both at once, so one of them waits on the other's lease; either
    way, both ops last about one simulation."""

    seed_independent = False

    def __init__(self, recipe, seed, work, shared, traced: bool = False):
        super().__init__(recipe, seed, work, shared, traced)
        self.threads = recipe["clients"]
        self.proc: Optional[subprocess.Popen] = None
        self.clients: List[CampaignClient] = []
        self.reports: Dict[int, Dict[str, Any]] = {}
        self.errors = 0
        self._lock = threading.Lock()
        self._step = threading.Barrier(self.threads)

    def spec(self, memory_seed: int) -> CampaignSpec:
        return CampaignSpec(
            workloads=self.r["workloads"], configs=CKPT_CONFIGS,
            num_cores=self.r["cores"], region_scale=self.r["scale"],
            reps=self.r["reps"], memory_seed=memory_seed,
        )

    def memory_seed(self, client: int, i: int) -> int:
        """Client ``c``'s submission ``i``: a fresh key set every fifth
        submission, client 1 two submissions ahead of client 0."""
        return self.seed + (i + 2 * client) // 5

    def setup(self) -> None:
        # Relative paths keep the socket under the AF_UNIX length limit
        # wherever the checkout lives; the daemon runs from ROOT too.
        sock = os.path.relpath(self.work / "s", ROOT)
        self.daemon_report = self.work / "daemon.json"
        cmd = [sys.executable, str(HERE / "serve.py"),
               "--report", str(self.daemon_report), "--",
               "serve", "--socket", sock,
               "--cache-dir", os.path.relpath(self.work / "cache", ROOT)]
        if self.traced:
            cmd.insert(2, "--trace")
        # Same process group as this pass, so a watchdog that kills the
        # group stops the daemon too; shards exit when its pipes close.
        self.proc = subprocess.Popen(cmd, cwd=ROOT)
        if not wait_for_socket(sock, timeout_s=60.0):
            raise RuntimeError("campaign daemon never became reachable")
        # Connect and ping one client at a time, so the daemon sees the
        # connections in client order (its spans join ops on that).
        for _ in range(self.r["clients"]):
            client = CampaignClient(sock, timeout_s=150.0).connect()
            client.ping()
            self.clients.append(client)

    def _client_loop(self, gen: LoadGen, c: int) -> None:
        for i in range(self.r["submissions"]):
            spec = self.spec(self.memory_seed(c, i))
            self._step.wait()
            report = gen.op((c, i), None,
                            lambda: self.clients[c].submit(spec),
                            check=self._report_ok)
            if report is not None:
                with self._lock:
                    self.reports.setdefault(spec.memory_seed, report)
                    if report != self.reports[spec.memory_seed]:
                        self.errors += 1

    @staticmethod
    def _report_ok(report: Dict[str, Any]) -> bool:
        return report["sha256"] == digest(report["runs"])

    def run(self, gen: LoadGen) -> None:
        threads = [
            threading.Thread(target=self._client_loop, args=(gen, c))
            for c in range(self.r["clients"])
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        gen.failed += self.errors

    def unique_keys(self) -> int:
        return len({run["key"] for rep in self.reports.values()
                    for run in rep["runs"]})

    def finish(self) -> None:
        self.simulations = self.clients[0].ping()["simulations"]

    def counts(self) -> Dict[str, float]:
        return {"service.simulations": self.simulations,
                "service.unique_keys": self.unique_keys()}

    def results(self) -> Any:
        if self.simulations != self.unique_keys():
            raise ValueError("exactly-once violated: daemon simulations "
                             "!= unique keys submitted")
        return [self.reports[s] for s in sorted(self.reports)]

    def _solo(self, memory_seed: int) -> Dict[str, Any]:
        """The in-process report for one key set (the service's twin)."""
        spec = self.spec(memory_seed)
        rn = ExperimentRunner(num_cores=spec.num_cores,
                              region_scale=spec.region_scale,
                              reps=spec.reps, engine=spec.engine)
        return campaign_report(rn, spec)

    def twin(self) -> Any:
        seeds = {self.memory_seed(c, i)
                 for c in range(self.r["clients"])
                 for i in range(self.r["submissions"])}
        return [self._solo(s) for s in sorted(seeds)]

    def spot_check(self) -> bool:
        return self._solo(self.seed) == self.reports.get(self.seed)

    def close(self) -> None:
        try:
            if self.clients:
                self.clients[0].shutdown()
        except ServiceError:
            pass
        for client in self.clients:
            client.close()
        if self.proc is not None:
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()

    def daemon(self) -> Dict[str, Any]:
        """What the daemon wrote at exit (peak RSS, traced totals)."""
        return json.loads(self.daemon_report.read_text())


WORKLOADS = {
    "report-cold": ReportCold,
    "report-warm": ReportWarm,
    "fig6-vector": Fig6Vector,
    "inject-forked": InjectForked,
    "service-mixed": ServiceMixed,
}


def expected_sum(name: str, mode: str, seed: int,
                 seed_independent: bool) -> Optional[str]:
    """The recorded twin checksum for this run, if there is one."""
    if not EXPECTED.exists():
        return None
    table = json.loads(EXPECTED.read_text()).get(mode, {}).get(name, {})
    return table.get("0" if seed_independent else str(seed))


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_pass(wl: Workload, rec: Optional[spans.Recorder],
               profile: bool) -> Dict[str, Any]:
    """Run the pass with tracing/profiling armed around it only."""
    gen = LoadGen(rec)
    prof = cProfile.Profile() if profile else None
    if rec is not None:
        rec.armed = True
    if prof is not None:
        prof.enable()
    with HostSpeed() as host:
        start = perf_counter()
        wl.run(gen)
        wall = perf_counter() - start
    if prof is not None:
        prof.disable()
    if rec is not None:
        rec.armed = False
    record: Dict[str, Any] = {
        "wall_s": wall, "latencies": gen.latencies(), "threads": wl.threads,
        "host_speed": host.speed(), "failed_ops": gen.failed,
        "rss_mb": rss_mb(),
    }
    if prof is not None:
        text = io.StringIO()
        pstats.Stats(prof, stream=text).sort_stats("tottime").print_stats(25)
        record["profile"] = text.getvalue()
    return record


def check(wl: Workload, name: str, mode: str, spot: bool) -> Dict[str, Any]:
    """The output gate: the recorded twin checksum when there is one for
    this seed, else (with ``spot``) a spot comparison against the twin.
    ``run.py`` also requires every pass of a run to reach one checksum,
    which is the only check of a pass with neither."""
    expected = expected_sum(name, mode, wl.seed, wl.seed_independent)
    try:
        checksum: Optional[str] = digest(wl.results())
    except Exception:  # any failure to produce outputs fails the gate
        traceback.print_exc()
        checksum = None
    if expected is not None:
        gate, how = checksum == expected, "recorded"
    elif spot:
        gate, how = checksum is not None and wl.spot_check(), "spot"
    else:
        gate, how = checksum is not None, "same"
    return {"checksum": checksum, "expected": expected, "gate": how,
            "correct": gate}


# ----------------------------------------------------------------- main --
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=RECIPES, default="full")
    parser.add_argument("--work", type=Path, required=True,
                        help="this pass's scratch directory")
    parser.add_argument("--shared", type=Path, required=True,
                        help="scratch directory kept for the whole run")
    parser.add_argument("--twin", action="store_true",
                        help="print the bit-identity twin's checksum")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, report ready, and stop")
    parser.add_argument("--spot-check", action="store_true",
                        help="compare against the twin when no checksum "
                             "is recorded for the seed")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--profile", action="store_true")
    parser.add_argument("--spans-out", type=Path, default=None)
    args = parser.parse_args(argv)

    # Protocol lines go to the original stdout; the program's own
    # prints are redirected to stderr.
    proto = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    def say(doc: Dict[str, Any]) -> None:
        proto.write(json.dumps(doc) + "\n")
        proto.flush()

    args.work.mkdir(parents=True, exist_ok=True)
    make = WORKLOADS[args.workload]
    recipe = RECIPES[args.mode][args.workload]
    if args.twin:
        twin = make(recipe, args.seed, args.work, args.shared)
        say({"checksum": digest(twin.twin())})
        return 0
    rec = spans.install(spans.Recorder()) if args.trace else None
    wl = make(recipe, args.seed, args.work, args.shared, args.trace)
    try:
        wl.setup()
        say({"ready": True})
        if args.setup_only:
            return 0
        record = timed_pass(wl, rec, args.profile)
        wl.finish()
        record["counts"] = wl.counts()
        record.update(check(wl, args.workload, args.mode, args.spot_check))
        if not record["correct"]:
            # A wrong output makes every op of the pass a failed op.
            record["failed_ops"] = len(record["latencies"])
        if rec is not None:
            record["trace"] = rec.totals()
    finally:
        wl.close()
    all_spans = rec.spans() if rec is not None else []
    if isinstance(wl, ServiceMixed):
        daemon = wl.daemon()
        record["rss_mb"] = daemon["rss_mb"]
        if rec is not None:
            record["daemon_trace"] = daemon["trace"]
            all_spans += daemon["spans"]
    if args.spans_out is not None:
        args.spans_out.write_text(json.dumps({"spans": all_spans}))
    say(record)
    return 0


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    # Every file is written and every child has stopped by now.  Freeing
    # a pass's objects at interpreter exit takes up to a second per
    # process, which no metric measures, so skip it.
    os._exit(code)
