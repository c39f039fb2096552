"""The experiment engine: memoised, disk-cached, parallel simulation runs.

Every figure/table generator needs the same small set of runs (e.g. the
Fig. 6/7/8 trio shares the NoCkpt/Ckpt/ReCkpt runs per benchmark); the
runner builds each workload's programs once and resolves every
(workload, :class:`ConfigRequest`) pair through three layers, cheapest
first:

1. the **in-process memo** — each distinct simulation costs one process
   exactly once;
2. the **persistent cache** (``cache_dir``) — serialised results keyed by
   a content hash of everything that determines the run, so repeated
   full-paper regenerations across invocations cost almost nothing;
3. the **simulator** — either inline, or fanned out over ``jobs``
   forked workers (``jobs > 1``) that each run the inline path over the
   same key list and publish through the cache (:meth:`_fan_out`).

A stored cache entry is a key's only completion record: a re-run
against the same ``cache_dir`` is the resume, since every key with an
entry reads back instead of simulating.

Every miss is simulated under its **claim** — one advisory
:class:`~repro.resilience.locks.KeyLock` per key beside the cache entry —
so runners sharing a cache directory (separate invocations, or the
campaign daemon's per-submission runners) simulate each key at most
once between them: a key whose claim is held elsewhere is waited on
until its entry is published, and re-claimed if its owner vanished.

Parallel runs are bit-identical to serial ones: the simulation is
deterministic, a worker is this runner forked, and the parent reads
every result back from the cache the workers published it to (a test
pins this).

Scale knobs: ``region_scale``/``reps`` shrink the workloads uniformly —
overheads and reductions are ratios, so they are stable across scales
(tests pin this).  The benchmark harness uses a moderate default scale to
keep a full paper regeneration to minutes.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from repro.arch.config import MachineConfig
from repro.experiments.cache import (
    KIND_RUN,
    KIND_TRIAL,
    ResultCache,
    run_cache_key,
    trial_cache_key,
)
from repro.experiments.configs import ConfigRequest, make_options
from repro.experiments.progress import ProgressTracker, _Timer
from repro.inject.harness import TrialResult, TrialSpec, run_trial
from repro.isa.program import Program
from repro.obs.events import MACHINE, PoolDegraded, WorkerDied
from repro.obs.telemetry.emit import frame_dict, task_telemetry
from repro.obs.tracer import Tracer
from repro.resilience.locks import KeyLock
from repro.sim.results import (
    RunResult,
    energy_overhead,
    time_overhead,
)
from repro.sim.snapshot import SnapshotStore
from repro.sim.simulator import Simulator
from repro.util.validation import check_positive
from repro.workloads.registry import all_workload_names, get_workload

__all__ = ["ExperimentRunner"]

#: How often a runner waiting on a peer's claim re-reads the key.
_CLAIM_POLL_S = 0.05

_Item = TypeVar("_Item")

#: Consecutive worker deaths, with no key published in between, after
#: which a fan-out stops forking and resolves the rest in this process.
_DEATHS_BEFORE_INLINE = 3
#: How long a worker told to stop may take to reach a point where it
#: takes SIGTERM (its next simulation or pause) before it is SIGKILLed.
_STOP_GRACE_S = 2.0
#: Where a fan-out without a cache keeps its scratch one: memory-backed,
#: when the host has it, since every key costs a claim file and an entry
#: file and creating a file there costs a tenth of what it does on disk.
_SCRATCH_ROOT = "/dev/shm"


def _run_label(pair: Tuple[str, ConfigRequest]) -> str:
    return f"{pair[0]}/{pair[1].config}"


def _trial_label(spec: TrialSpec) -> str:
    return f"{spec.workload}/inject:{spec.config}#{spec.seed}"


class _PipeTelemetry:
    """A forked worker's telemetry: each frame goes up the worker's pipe
    to the parent's aggregator.  The worker's own cache I/O phases stay
    unattributed (its profiler is never read)."""

    def __init__(self, conn: Any) -> None:
        from repro.obs.telemetry.profile import PhaseProfiler

        self.conn = conn
        self.profiler = PhaseProfiler()

    def on_event(self, task: str, event: Any) -> None:
        self.conn.send(("frame", frame_dict(task, event)))


class _Workers:
    """The parent side of one fan-out: forked workers, their exit
    sentinels and their one-way pipes (see ExperimentRunner._fan_out).

    A pipe carries telemetry frames, one ``published`` note per key the
    worker stored, and at most one ``failed`` note naming the task whose
    exception ends the worker — never tasks or results.
    """

    def __init__(
        self,
        runner: "ExperimentRunner",
        target: Callable[[int, Any], None],
        count: int,
        keys: int,
    ) -> None:
        import multiprocessing

        self.runner = runner
        self.target = target
        self.keys = keys
        self.ctx = multiprocessing.get_context("fork")
        self.live: Dict[int, Tuple[Any, Any]] = {}
        self.published: set = set()
        self.deaths = 0
        self.failure: Optional[str] = None
        self._t0 = time.monotonic()
        for index in range(count):
            self._spawn(index)

    def _spawn(self, index: int) -> None:
        recv, send = self.ctx.Pipe(duplex=False)
        proc = self.ctx.Process(
            target=self.target, args=(index, send),
            name=f"acr-worker-{index}", daemon=True,
        )
        proc.start()
        send.close()
        self.live[index] = (proc, recv)

    def run(self) -> None:
        """Watch the workers until one exits cleanly (every key reads
        back) or they keep dying; a task exception raises, once."""
        runner = self.runner
        while True:
            if runner.telemetry is not None:
                runner.telemetry.update_pool(
                    len(self.live), len(self.live),
                    self.keys - len(self.published),
                )
            for index, proc, code in self._sweep(None):
                if code == 0:
                    return
                if code > 0:
                    raise RuntimeError(
                        self.failure
                        or f"worker pid {proc.pid} exited with status {code}"
                    )
                self.deaths += 1
                runner._trace(WorkerDied(
                    ts_ns=self._now_ns(), core=MACHINE,
                    label=proc.name, pid=proc.pid,
                ))
                if self.deaths >= _DEATHS_BEFORE_INLINE:
                    runner._trace(PoolDegraded(
                        ts_ns=self._now_ns(), core=MACHINE,
                        failures=self.deaths,
                    ))
                    return
                self._spawn(index)

    def stop(self) -> None:
        """Stop every live worker (see ExperimentRunner._work for where
        it takes SIGTERM), SIGKILL any still there after
        ``_STOP_GRACE_S``, and reap them all, folding their last notes.
        A frozen (SIGSTOPped) worker is continued, so it takes its
        SIGTERM at once."""
        import signal

        for proc, _conn in self.live.values():
            if proc.exitcode is None:  # unreaped: its pid is not reused
                proc.terminate()
                os.kill(proc.pid, signal.SIGCONT)
        deadline = time.monotonic() + _STOP_GRACE_S
        while self.live and time.monotonic() < deadline:
            self._sweep(deadline - time.monotonic())
        for proc, _conn in self.live.values():
            proc.kill()
        while self.live:
            self._sweep(None)

    def _sweep(self, timeout: Optional[float]) -> List[Tuple[int, Any, int]]:
        """Wait for a note or an exit, fold every waiting note and reap
        every exited worker; returns the exits as (index, process, code).
        """
        from multiprocessing.connection import wait

        wait(
            [proc.sentinel for proc, _conn in self.live.values()]
            + [conn for _proc, conn in self.live.values()],
            timeout,
        )
        exits = []
        for index, (proc, conn) in list(self.live.items()):
            code = proc.exitcode  # reaps an exited worker
            self._drain(index, conn)
            if code is not None:
                conn.close()
                del self.live[index]
                exits.append((index, proc, code))
        return exits

    def _drain(self, index: int, conn: Any) -> None:
        runner = self.runner
        while True:
            try:
                if not conn.poll():
                    return
                note = conn.recv()
            except (EOFError, OSError):
                return
            if note[0] == "frame":
                if runner.telemetry is not None:
                    runner.telemetry.on_frame_dict(note[1], worker=index)
            elif note[0] == "published":
                _tag, key, kind, label, seconds = note
                self.published.add(key)
                self.deaths = 0
                workload, config = label.split("/", 1)
                runner.progress.record(workload, config, "worker", seconds)
                runner.progress.record_miss()
                if kind == KIND_TRIAL and runner.snapshots:
                    runner.progress.record_forked()
            else:
                self.failure = note[1]

    def _now_ns(self) -> float:
        return (time.monotonic() - self._t0) * 1e9


class ExperimentRunner:
    """Runs (workload, configuration) pairs with layered caching."""

    def __init__(
        self,
        num_cores: int = 8,
        region_scale: float = 1.0,
        reps: Optional[int] = None,
        machine: Optional[MachineConfig] = None,
        jobs: int = 1,
        cache_dir: Optional[Union[str, Path]] = None,
        progress: Optional[ProgressTracker] = None,
        lock_stale_s: float = 600.0,
        engine: str = "interp",
        telemetry=None,
        snapshots: bool = True,
        snapshot_dir: Optional[Union[str, Path]] = None,
        cache: Optional[ResultCache] = None,
    ) -> None:
        check_positive("num_cores", num_cores)
        check_positive("region_scale", region_scale)
        check_positive("jobs", jobs)
        check_positive("lock_stale_s", lock_stale_s)
        self.num_cores = num_cores
        self.region_scale = region_scale
        self.reps = reps
        # The execution engine is intentionally absent from cache keys:
        # engines are bit-identical (the equivalence suite pins it), so a
        # cached result is valid regardless of which engine produced it.
        # It drives simulator runs only: trials run on the interpreter.
        self.engine = engine
        self.machine = machine or MachineConfig(num_cores=num_cores)
        if self.machine.num_cores != num_cores:
            raise ValueError("machine config core count mismatch")
        self.jobs = jobs
        # Fault-injection execution plan: fork each trial's faulty pass
        # from the shared golden run's boundary snapshots (O(T + N·tail)
        # per recipe) instead of replaying from step 0 (O(N·T)).  This is
        # bit-identity-neutral (the fork-equivalence suite pins it) and
        # absent from cache keys; ``snapshot_dir``
        # optionally persists golden runs across invocations.
        self.snapshots = snapshots
        self.snapshot_dir: Optional[Path] = (
            Path(snapshot_dir) if snapshot_dir is not None else None
        )
        self.snapshot_store: Optional[SnapshotStore] = (
            SnapshotStore(self.snapshot_dir)
            if self.snapshot_dir is not None
            else None
        )
        self.progress = progress if progress is not None else ProgressTracker()
        # A caller-provided cache object (e.g. the campaign daemon's
        # shared cache) wins over ``cache_dir``; the caller then owns
        # its quarantine wiring.  A cache built here reports its
        # quarantines through this runner's progress.
        self.cache: Optional[ResultCache] = cache
        if self.cache is None and cache_dir is not None:
            # The callback holds the tracker, not ``self``: a runner that
            # its own cache pointed back to would be cyclic garbage, freed
            # only by a full collection.
            progress = self.progress
            self.cache = ResultCache(
                cache_dir,
                on_quarantine=lambda _p: progress.record_quarantine(),
            )
        #: Optional CampaignTelemetry: live frame streaming + snapshots.
        #: None (the default) keeps every execution path frame-free and
        #: byte-identical (pinned by test and benchmark guardrail).
        self.telemetry = telemetry
        # -- crash tolerance (repro.resilience) ------------------------------
        #: How old (by mtime) a per-key claim must be before a waiting
        #: runner presumes its owner hung and breaks it (``--timeout``).
        self.lock_stale_s = lock_stale_s
        #: Optional Tracer receiving harness-level events (worker_died,
        #: pool_degraded).
        self.resilience_tracer: Optional[Tracer] = None
        #: In a fan-out worker, the pipe its ``published`` notes go up.
        self._pipe: Any = None
        #: Claims this runner currently holds, by cache key; heartbeaten
        #: per completed task so long-running owners are not broken as
        #: stale by waiting peers.
        self._claims: Dict[str, KeyLock] = {}
        self._programs: Dict[str, List[Program]] = {}
        self._simulators: Dict[str, Simulator] = {}
        self._results: Dict[Tuple[str, ConfigRequest], RunResult] = {}
        self._trial_results: Dict[TrialSpec, TrialResult] = {}

    # -- infrastructure ------------------------------------------------------
    def simulator(self, workload: str) -> Simulator:
        """The (cached) simulator for a workload."""
        if workload not in self._simulators:
            spec = get_workload(workload)
            programs = spec.build_programs(
                self.num_cores,
                region_scale=self.region_scale,
                reps=self.reps,
            )
            self._programs[workload] = programs
            self._simulators[workload] = Simulator(programs, self.machine)
        return self._simulators[workload]

    def default_threshold(self, workload: str) -> int:
        """The paper's per-benchmark slice threshold (10; 5 for ``is``)."""
        return get_workload(workload).default_threshold

    def cache_key(self, workload: str, request: ConfigRequest) -> str:
        """The persistent-cache key of one run (requires a cache to be
        meaningful, but computable without one)."""
        return run_cache_key(
            workload, request, self.machine, self.region_scale, self.reps
        )

    # -- runs ---------------------------------------------------------------
    def run(self, workload: str, request: ConfigRequest) -> RunResult:
        """Run (or fetch) one configuration of one workload."""
        found = self.lookup(workload, request)
        if found is not None:
            return found
        self._resolve_runs([(workload, request)], jobs=1)
        return self._results[(workload, request)]

    def run_many(
        self,
        pairs: Iterable[Tuple[str, ConfigRequest]],
        jobs: Optional[int] = None,
    ) -> List[RunResult]:
        """Resolve many (workload, request) pairs, fanning the misses out
        over ``jobs`` forked workers when ``jobs > 1`` (:meth:`_fan_out`).

        Results are returned in input order and are identical to what the
        serial :meth:`run` path produces (workers publish through the
        cache and the parent reads every result back; the checkpoint store
        stays worker-side).  Pairs already in the memo or the persistent
        cache are never re-simulated, and a miss is simulated only under
        its claim (:meth:`_claimed`).  Dead workers are respawned and
        none of that changes the results (simulations are deterministic;
        chaos tests pin bit-exactness).  Each result is stored the
        moment it completes, so a ``KeyboardInterrupt`` loses only
        in-flight work.
        """
        ordered = list(dict.fromkeys(pairs))
        jobs = self.jobs if jobs is None else jobs
        check_positive("jobs", jobs)

        pending = [
            (wl, req)
            for wl, req in ordered
            if self.lookup(wl, req) is None
        ]
        if pending:
            self._resolve_runs(pending, jobs)
        return [self._results[(wl, req)] for wl, req in ordered]

    # -- fault-injection trials ----------------------------------------------
    def run_trials(
        self,
        specs: Iterable[TrialSpec],
        jobs: Optional[int] = None,
    ) -> List[TrialResult]:
        """Resolve fault-injection :class:`TrialSpec`\\ s through the same
        three layers as simulation runs: memo → persistent cache →
        execute (inline, or over forked workers when ``jobs > 1``), each
        miss under its claim.

        Trials are self-contained — each spec carries its own workload,
        scale and machine shape — so the runner's ``num_cores`` /
        ``region_scale`` knobs do not apply here; only its cache, workers
        and progress plumbing do.  Results come back in input order and
        are bit-identical across the serial and parallel paths (a test
        pins this).
        """
        ordered = list(dict.fromkeys(specs))
        jobs = self.jobs if jobs is None else jobs
        check_positive("jobs", jobs)

        pending = [s for s in ordered if self._lookup_trial(s) is None]
        if pending and jobs > 1:
            self._fan_out(
                pending, jobs, lambda spec: [trial_cache_key(spec)],
                _trial_label, self._lookup_trial, self._claim_trials,
                self._read_back_trial,
            )
        elif pending:
            self._claim_trials(pending)
        return [self._trial_results[s] for s in ordered]

    def _claim_trials(self, pending: Sequence[TrialSpec]) -> None:
        self._claimed(
            pending, trial_cache_key, self._lookup_trial,
            self._execute_trials,
        )

    def _execute_trial_inline(self, spec: TrialSpec) -> None:
        """Run one trial in-process and store it in every layer."""
        scope = self._task_scope(_trial_label(spec))
        with scope, _Timer() as timer:
            result = run_trial(
                spec,
                snapshots=self.snapshots,
                snapshot_store=self.snapshot_store,
            )
        self._install_trial(spec, result, timer.seconds)

    def _execute_trials(self, pending: Sequence[TrialSpec]) -> None:
        """Execute claimed trials inline."""
        for spec in pending:
            self._execute_trial_inline(spec)

    def _read_back_trial(self, spec: TrialSpec) -> bool:
        """Memoise a trial a fan-out worker published (its note already
        counted it, so no disk hit is recorded); ``False`` if it does
        not decode — the inline pass then quarantines and re-executes."""
        payload = self.cache.load_payload(trial_cache_key(spec), KIND_TRIAL)
        if payload is None:
            return False
        try:
            self._trial_results[spec] = TrialResult.from_dict(payload)
        except (ValueError, TypeError, KeyError):
            return False
        return True

    def _lookup_trial(self, spec: TrialSpec) -> Optional[TrialResult]:
        """Memo, then persistent cache; ``None`` means 'must execute'.

        A cached payload that fails to decode as a :class:`TrialResult`
        (truncation, hand edits, schema drift within the envelope) is
        quarantined and reported as a miss — never a crash.  Hits are
        counted here, a miss by the claim that executes it.
        """
        memo = self._trial_results.get(spec)
        if memo is not None:
            self.progress.record_memo()
            return memo
        if self.cache is not None:
            key = trial_cache_key(spec)
            with self._phase("cache-io"), _Timer() as timer:
                payload = self.cache.load_payload(key, KIND_TRIAL)
                cached: Optional[TrialResult] = None
                if payload is not None:
                    try:
                        cached = TrialResult.from_dict(payload)
                    except (ValueError, TypeError, KeyError):
                        self.cache.quarantine(key)
            if cached is not None:
                self._trial_results[spec] = cached
                self.progress.record(
                    spec.workload, f"inject:{spec.config}", "disk",
                    timer.seconds,
                )
                return cached
        return None

    def _install_trial(
        self,
        spec: TrialSpec,
        result: TrialResult,
        seconds: float,
    ) -> None:
        """Record progress and store a fresh trial result in every layer."""
        self.progress.record(
            spec.workload, f"inject:{spec.config}", "sim", seconds
        )
        if self.snapshots:
            self.progress.record_forked()
        self._trial_results[spec] = result
        key = trial_cache_key(spec)
        if self.cache is not None:
            with self._phase("cache-io"):
                self.cache.store_payload(key, result.to_dict(), KIND_TRIAL)
        self._published(
            key, KIND_TRIAL, f"{spec.workload}/inject:{spec.config}", seconds
        )

    def run_traced(
        self,
        workload: str,
        request: ConfigRequest,
        tracer: Optional[Tracer] = None,
        collect_metrics: bool = True,
    ) -> RunResult:
        """Run one configuration with observability attached.

        Traced runs **bypass the cache entirely** — the tracer is not
        part of the cache key, so storing (or serving) a traced result
        would alias it with the untraced run.  The baseline profile is
        still resolved through the normal cached path; only the traced
        run itself always simulates.
        """
        with _Timer() as timer:
            sim = self.simulator(workload)
            baseline = None
            if not request.is_baseline:
                baseline = self.baseline(
                    workload, request.memory_seed
                ).baseline_profile()
            result = sim.run(
                make_options(
                    request,
                    baseline,
                    tracer=tracer,
                    collect_metrics=collect_metrics,
                    engine=self.engine,
                )
            )
        self.progress.record(
            workload, request.config, "sim", timer.seconds, traced=True
        )
        if result.obs is not None:
            self.progress.record_tracing(
                result.obs.events_captured, result.obs.events_dropped
            )
        return result

    def baseline(self, workload: str, memory_seed: int = 0) -> RunResult:
        """The NoCkpt run of a workload (same memory seed as dependents)."""
        return self.run(workload, ConfigRequest("NoCkpt", memory_seed=memory_seed))

    def run_default(
        self,
        workload: str,
        config: str,
        num_checkpoints: int = 25,
        error_count: int = 1,
        threshold: Optional[int] = None,
    ) -> RunResult:
        """Run a named configuration with the benchmark's default threshold."""
        return self.run(
            workload,
            self.default_request(
                workload,
                config,
                num_checkpoints=num_checkpoints,
                error_count=error_count,
                threshold=threshold,
            ),
        )

    def default_request(
        self,
        workload: str,
        config: str,
        num_checkpoints: int = 25,
        error_count: int = 1,
        threshold: Optional[int] = None,
    ) -> ConfigRequest:
        """The request :meth:`run_default` would run (for prefetch plans)."""
        return ConfigRequest(
            config,
            num_checkpoints=num_checkpoints,
            error_count=error_count,
            threshold=(
                threshold
                if threshold is not None
                else self.default_threshold(workload)
            ),
        )

    # -- resolution layers ---------------------------------------------------
    def lookup(
        self, workload: str, request: ConfigRequest
    ) -> Optional[RunResult]:
        """Memo, then persistent cache, never simulating; ``None`` means
        'must simulate' (a corrupt entry is quarantined and reads as a
        miss).  Hits are counted here, a miss by the claim that
        simulates it (:meth:`_claimed`), so each key counts once."""
        key = (workload, request)
        memo = self._results.get(key)
        if memo is not None:
            self.progress.record_memo()
            return memo
        if self.cache is None:
            return None
        with self._phase("cache-io"), _Timer() as timer:
            cached = self.cache.load(self.cache_key(workload, request))
        if cached is not None:
            self._results[key] = cached
            self.progress.record(
                workload, request.config, "disk", timer.seconds
            )
        return cached

    def _simulate(self, workload: str, request: ConfigRequest) -> None:
        """Execute one claimed run in-process and store it in every layer
        (its baseline is already resolved: baselines are claimed first)."""
        scope = self._task_scope(f"{workload}/{request.config}")
        with scope, _Timer() as timer:
            sim = self.simulator(workload)
            base = self._resolved_baseline(workload, request)
            profile = base.baseline_profile() if base is not None else None
            result = sim.run(make_options(request, profile, engine=self.engine))
        self.progress.record(workload, request.config, "sim", timer.seconds)
        if result.vector_coverage is not None:
            self.progress.record_vector_coverage(
                result.vector_coverage["replayed_iterations"],
                result.vector_coverage["fallback_iterations"],
            )
        self._store(workload, request, result, seconds=timer.seconds)

    def _resolved_baseline(
        self, workload: str, request: ConfigRequest
    ) -> Optional[RunResult]:
        """The NoCkpt run a claimed dependent needs (``None`` for a
        baseline) — already memoised, since baselines resolve first."""
        if request.is_baseline:
            return None
        base = ConfigRequest("NoCkpt", memory_seed=request.memory_seed)
        return self._results[(workload, base)]

    def _store(
        self,
        workload: str,
        request: ConfigRequest,
        result: RunResult,
        seconds: float = 0.0,
    ) -> None:
        """Install a fresh result into the memo and the persistent
        cache, then release its claim."""
        self._results[(workload, request)] = result
        key = self.cache_key(workload, request)
        if self.cache is not None:
            with self._phase("cache-io"):
                self.cache.store(key, result)
        self._published(key, KIND_RUN, f"{workload}/{request.config}", seconds)

    # -- telemetry plumbing ---------------------------------------------------
    def _task_scope(self, label: str):
        """Wrap one inline task execution in its telemetry scope
        (``task_started``/boundaries/``task_finished`` straight into
        the aggregator) — a no-op context when telemetry is off."""
        if self.telemetry is None:
            return nullcontext()
        return task_telemetry(label, self.telemetry.on_event)

    def _phase(self, name: str):
        """Time one phase of this process (cache I/O) on the campaign
        profiler."""
        if self.telemetry is None:
            return nullcontext()
        return self.telemetry.profiler.phase(name)

    # -- resilience plumbing -------------------------------------------------
    def _trace(self, event: Any) -> None:
        """Emit one harness-level event: the progress tracker folds it
        into its footer counters, then the resilience tracer sees it."""
        self.progress.emit(event)
        tracer = self.resilience_tracer
        if tracer is not None and getattr(tracer, "enabled", False):
            tracer.emit(event)

    def _published(
        self, key: str, kind: str, label: str, seconds: float
    ) -> None:
        """A fresh result for ``key`` is stored: release its claim
        right away, and heartbeat the claims still held; in a
        fan-out worker, also note it to the parent.

        Heartbeating per completed task bounds a waiting peer's
        staleness clock by the longest *single* task rather than the
        whole batch (one utime per held claim).  Every key takes one
        attempt: nothing is retried.
        """
        self._release_claim(key)
        for claim in self._claims.values():
            claim.heartbeat()
        if self._pipe is not None:
            self._pipe.send(("published", key, kind, label, seconds))

    def _release_claim(self, key: str) -> None:
        claim = self._claims.pop(key, None)
        if claim is not None:
            claim.release()

    # -- per-key claims ------------------------------------------------------
    def _claimed(
        self,
        items: Sequence[_Item],
        key_of: Callable[[_Item], str],
        lookup: Callable[[_Item], Any],
        execute: Callable[[List[_Item]], None],
    ) -> None:
        """Execute the missed ``items`` so that each key is simulated at
        most once across every runner sharing the cache.

        Each key's claim — a :class:`KeyLock` on ``cache.lock_path`` — is
        tried without blocking.  A won key is re-read through ``lookup``
        (a peer may have published since the caller's read) and handed
        to ``execute`` only if it still misses; storing its result
        releases the claim (:meth:`_published`).  A key claimed
        elsewhere is polled until its entry reads back through
        ``lookup`` — so a corrupt entry never passes for done — or until
        its claim is won, because the owner released without publishing,
        died, or went stale (``lock_stale_s``) and was broken.  It is
        then handled like any other win.

        Callers resolve baselines before claiming their dependents, so
        ``execute`` never waits on another key and no claim is held
        across a nested run.  Without a cache there is nothing to share:
        every item executes.
        """
        if self.cache is None:
            execute(list(items))
            return
        todo = list(items)
        while todo:
            won: List[_Item] = []
            waiting: List[_Item] = []
            for item in todo:
                key = key_of(item)
                claim = KeyLock(
                    self.cache.lock_path(key),
                    stale_s=self.lock_stale_s,
                )
                if not claim.try_acquire():
                    waiting.append(item)
                    continue
                self._claims[key] = claim
                if lookup(item) is None:
                    won.append(item)
                else:
                    self._release_claim(key)
            if won:
                self.progress.record_miss(len(won))
                try:
                    execute(won)
                finally:
                    for item in won:
                        self._release_claim(key_of(item))
            todo = [item for item in waiting if lookup(item) is None]
            if todo and not won:
                time.sleep(_CLAIM_POLL_S)

    # -- resolution ----------------------------------------------------------
    def _resolve_runs(
        self, pending: Sequence[Tuple[str, ConfigRequest]], jobs: int
    ) -> None:
        """Simulate the missed ``pending`` pairs, baselines first.

        Two phases: every needed NoCkpt baseline is resolved first
        (dependents need its per-core useful-time profile to place
        boundaries and errors), then all remaining pairs run fully
        independently — each phase under its claims.  With ``jobs > 1``
        both phases, in that order, are one fan-out's key list.
        """
        baseline_reqs: Dict[Tuple[str, ConfigRequest], None] = {}
        for wl, req in pending:
            if req.is_baseline:
                baseline_reqs.setdefault((wl, req), None)
            else:
                base = ConfigRequest("NoCkpt", memory_seed=req.memory_seed)
                baseline_reqs.setdefault((wl, base), None)

        # Pairs already in `pending` are known misses; only implicit
        # baselines (needed but not requested) get a fresh lookup.
        pending_set = set(pending)
        phase1 = [
            key
            for key in baseline_reqs
            if key in pending_set or self.lookup(*key) is None
        ]
        phase2 = [(wl, req) for wl, req in pending if not req.is_baseline]

        if jobs > 1:
            self._fan_out(
                phase1 + phase2, jobs, self._run_claims, _run_label,
                lambda pair: self.lookup(*pair),
                lambda pairs: self._resolve_runs(pairs, 1),
                self._read_back_run,
            )
            return
        for phase in (phase1, phase2):
            self._claimed(
                phase,
                lambda pair: self.cache_key(*pair),
                lambda pair: self.lookup(*pair),
                self._execute_runs,
            )

    def _execute_runs(self, pairs: Sequence[Tuple[str, ConfigRequest]]) -> None:
        """Execute claimed pairs inline, installing each result (memo +
        cache) the moment it completes.  Every dependent's
        baseline is already in the memo."""
        for wl, req in pairs:
            self._simulate(wl, req)

    def _run_claims(self, pair: Tuple[str, ConfigRequest]) -> List[str]:
        """The keys resolving ``pair`` may claim: its baseline's (for a
        dependent), then its own."""
        workload, request = pair
        own = self.cache_key(workload, request)
        if request.is_baseline:
            return [own]
        base = ConfigRequest("NoCkpt", memory_seed=request.memory_seed)
        return [self.cache_key(workload, base), own]

    def _read_back_run(self, pair: Tuple[str, ConfigRequest]) -> bool:
        """Memoise a run a fan-out worker published (its note already
        counted it, so no disk hit is recorded); ``False`` on a miss."""
        result = self.cache.load(self.cache_key(*pair))
        if result is None:
            return False
        self._results[pair] = result
        return True

    # -- fan-out ---------------------------------------------------------------
    def _fan_out(
        self,
        items: List[_Item],
        jobs: int,
        claims_of: Callable[[_Item], List[str]],
        label_of: Callable[[_Item], str],
        lookup: Callable[[_Item], Any],
        resolve: Callable[[List[_Item]], None],
        read_back: Callable[[_Item], bool],
    ) -> None:
        """Resolve the missed ``items`` over ``jobs`` forked workers.

        Each worker is this runner forked with ``jobs=1`` semantics: it
        walks its own stripe of ``items``, then all of them from the
        other end, one key at a time through ``resolve`` (the inline
        path: claim, simulate, publish), so it returns only once every
        key is in the cache (:meth:`_work`).  ``claims_of`` names the
        keys resolving an item may claim, its own last.  A runner
        without a cache fans out through a scratch one for the call's
        duration.  The parent only watches:

        * a clean exit ends the fan-out, and the other workers stop;
        * a death by signal is reaped — which lets a peer break its
          claim at once (see ``KeyLock._orphaned``) — counted and
          respawned; after ``_DEATHS_BEFORE_INLINE`` deaths with no key
          published in between the workers stop and the rest resolves
          in this process;
        * a task exception fails the fan-out once, naming the task:
          simulations are deterministic, so a retry buys nothing.

        A hung worker needs no watchdog: its claim stops being
        heartbeaten, goes stale (``lock_stale_s``), and a peer breaks
        it.  At the end every key is read back from the cache into the
        memo (``read_back`` for keys a worker noted, the inline
        ``lookup``/``resolve`` for the rest).
        """
        import tempfile

        scratch = None
        if self.cache is None:
            scratch = tempfile.TemporaryDirectory(
                prefix="acr-fan-out-",
                dir=_SCRATCH_ROOT if os.access(_SCRATCH_ROOT, os.W_OK) else None,
            )
            self.cache = ResultCache(scratch.name)
        try:
            claims = {item: claims_of(item) for item in items}
            count = min(jobs, len(items))
            workers = _Workers(
                self,
                lambda index, conn: self._work(
                    items[index::count] + items[::-1], conn,
                    claims.__getitem__, resolve, label_of,
                ),
                count,
                len(items),
            )
            try:
                workers.run()
            finally:
                workers.stop()
            rest = []
            with self._phase("cache-io"):
                for item in items:
                    key = claims[item][-1]
                    if key not in workers.published or not read_back(item):
                        rest.append(item)
            rest = [item for item in rest if lookup(item) is None]
            if rest:
                resolve(rest)
        finally:
            if scratch is not None:
                self.cache = None
                scratch.cleanup()

    def _work(
        self,
        order: List[_Item],
        conn: Any,
        claims_of: Callable[[_Item], List[str]],
        resolve: Callable[[List[_Item]], None],
        label_of: Callable[[_Item], str],
    ) -> None:
        """A forked worker's body: resolve ``order`` one key at a time,
        taking free keys rather than waiting on held ones.

        An item already in the cache is skipped.  One with a claim a
        live peer holds (its own, or its baseline's) is put off to a
        later pass, so a worker done with its stripe takes the keys no
        one has started instead of waiting on a peer's current one.  A
        pass that puts off every item sleeps one claim poll.  A held claim
        whose owner dies or goes stale reads as free again, and the
        inline path breaks it.

        SIGTERM — the parent's stop — is blocked except while a task
        simulates (inside its ``_task_scope``) and while the worker sleeps
        between passes.  There the worker holds only the claims it has
        registered, so it releases them and dies by the signal; it is
        never stopped mid-claim (a claim file cut off before it names
        its owner would stand until it goes stale) or while it stores
        and notes a result.  A task exception prints its
        traceback, sends one ``failed`` note and exits with status 1.
        """
        import signal
        import sys
        import traceback
        from contextlib import contextmanager

        term = {signal.SIGTERM}
        task_scope = self._task_scope

        @contextmanager
        def stoppable(label: str) -> Iterator[None]:
            with task_scope(label):
                signal.pthread_sigmask(signal.SIG_UNBLOCK, term)
                try:
                    yield
                finally:
                    signal.pthread_sigmask(signal.SIG_BLOCK, term)

        def stopped(signum: int, frame: Any) -> None:
            for claim in self._claims.values():
                claim.release()
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            os.kill(os.getpid(), signal.SIGTERM)

        signal.pthread_sigmask(signal.SIG_BLOCK, term)
        signal.signal(signal.SIGTERM, stopped)
        self._task_scope = stoppable
        self._pipe = conn
        self.progress = ProgressTracker()
        self.resilience_tracer = None
        if self.telemetry is not None:
            self.telemetry = _PipeTelemetry(conn)
        cache = self.cache
        while order:
            held: List[_Item] = []
            for item in order:
                claims = claims_of(item)
                if claims[-1] in cache:
                    continue
                if any(
                    KeyLock(
                        cache.lock_path(key),
                        stale_s=self.lock_stale_s,
                    ).held()
                    for key in claims
                ):
                    held.append(item)
                    continue
                try:
                    resolve([item])
                except Exception as exc:
                    traceback.print_exc()
                    conn.send((
                        "failed",
                        f"task {label_of(item)} failed: "
                        f"{type(exc).__name__}: {exc}",
                    ))
                    sys.exit(1)
            if len(held) == len(order):
                signal.pthread_sigmask(signal.SIG_UNBLOCK, term)
                time.sleep(_CLAIM_POLL_S)
                signal.pthread_sigmask(signal.SIG_BLOCK, term)
            order = held

    # -- derived metrics ------------------------------------------------------
    def time_overhead(self, workload: str, request: ConfigRequest) -> float:
        """Fractional time overhead of a configuration w.r.t. NoCkpt."""
        return time_overhead(
            self.run(workload, request),
            self.baseline(workload, request.memory_seed),
        )

    def energy_overhead(self, workload: str, request: ConfigRequest) -> float:
        """Fractional energy overhead of a configuration w.r.t. NoCkpt."""
        return energy_overhead(
            self.run(workload, request),
            self.baseline(workload, request.memory_seed),
        )

    def workloads(self) -> List[str]:
        """All benchmark names."""
        return all_workload_names()
