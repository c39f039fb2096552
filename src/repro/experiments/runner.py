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
3. the **simulator** — either inline, or fanned out over a supervised
   worker pool (``jobs > 1``; :mod:`repro.resilience`) for independent
   pairs via :meth:`ExperimentRunner.run_many` — with per-task
   timeouts, retries with deterministic backoff, dead-worker respawn
   and a write-ahead completion journal for ``resume``.

Parallel runs are bit-identical to serial ones: the simulation is
deterministic, workers return the full serialised result, and both paths
share the same cache keys (a test pins this).

Scale knobs: ``region_scale``/``reps`` shrink the workloads uniformly —
overheads and reductions are ratios, so they are stable across scales
(tests pin this).  The benchmark harness uses a moderate default scale to
keep a full paper regeneration to minutes.
"""

from __future__ import annotations

from contextlib import nullcontext
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
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
from repro.obs.events import MACHINE, CampaignResumed
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry.emit import task_telemetry
from repro.obs.tracer import Tracer
from repro.resilience.journal import CompletionJournal, JournalRecord
from repro.resilience.locks import KeyLock
from repro.resilience.policy import ResiliencePolicy
from repro.resilience.report import FailureReport
from repro.resilience.supervisor import SupervisedTask, Supervisor
from repro.sim.results import (
    BaselineProfile,
    RunResult,
    energy_overhead,
    time_overhead,
)
from repro.sim.snapshot import SnapshotStore
from repro.sim.simulator import Simulator
from repro.util.validation import check_positive
from repro.workloads.registry import all_workload_names, get_workload

__all__ = ["ExperimentRunner"]

#: One unit of pool work: everything a worker needs to rebuild the
#: simulator and execute the run, plus the baseline profile (None for
#: NoCkpt runs — they *are* the profile) and the execution engine.
_WorkerTask = Tuple[
    str,
    ConfigRequest,
    MachineConfig,
    float,
    Optional[int],
    Optional[List[float]],
    str,
]

#: Per-worker-process simulator memo, keyed by the full build recipe.
#: Lives at module scope so one pool worker serving several requests of
#: the same workload builds its programs once.
_WORKER_SIMULATORS: Dict[Tuple, Simulator] = {}


def _worker_simulator(
    workload: str,
    machine: MachineConfig,
    region_scale: float,
    reps: Optional[int],
) -> Simulator:
    """Build (or reuse) this worker process's simulator for a workload."""
    key = (workload, machine, region_scale, reps)
    sim = _WORKER_SIMULATORS.get(key)
    if sim is None:
        spec = get_workload(workload)
        programs = spec.build_programs(
            machine.num_cores, region_scale=region_scale, reps=reps
        )
        sim = Simulator(programs, machine)
        _WORKER_SIMULATORS[key] = sim
    return sim


def _trial_execute(
    task: Tuple[TrialSpec, str, bool, Optional[str]]
) -> Tuple[TrialSpec, dict, float]:
    """Pool entry point for fault-injection trials.

    A trial is self-contained (the spec names its workload, scale and
    machine shape), so the task is the spec plus the execution-plan
    knobs: the engine, whether to run on the forked-snapshot plan, and
    the snapshot store directory (None: in-process golden memo only —
    the harness keeps it at module scope, so one pool worker serving
    many trials of a recipe runs its golden pass once either way).
    Like :func:`_worker_execute` the result crosses the process boundary
    serialised.
    """
    spec, engine, snapshots, snapshot_dir = task
    store = (
        SnapshotStore(Path(snapshot_dir)) if snapshot_dir is not None
        else None
    )
    with _Timer() as timer:
        result = run_trial(
            spec, engine=engine, snapshots=snapshots, snapshot_store=store
        )
    return spec, result.to_dict(), timer.seconds


def _worker_execute(task: _WorkerTask) -> Tuple[str, ConfigRequest, dict, float]:
    """Pool entry point: run one configuration, return its serialised
    result (dicts, not ``RunResult`` — the checkpoint store never crosses
    the process boundary, and JSON-safe payloads keep pickling cheap)."""
    workload, request, machine, region_scale, reps, baseline_cores, engine = task
    with _Timer() as timer:
        sim = _worker_simulator(workload, machine, region_scale, reps)
        baseline = (
            BaselineProfile(list(baseline_cores))
            if baseline_cores is not None
            else None
        )
        result = sim.run(make_options(request, baseline, engine=engine))
    return workload, request, result.to_dict(), timer.seconds


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
        resilience: Optional[ResiliencePolicy] = None,
        journal_path: Optional[Union[str, Path]] = None,
        resume: bool = False,
        engine: str = "interp",
        telemetry=None,
        snapshots: bool = True,
        snapshot_dir: Optional[Union[str, Path]] = None,
        cache: Optional[ResultCache] = None,
    ) -> None:
        check_positive("num_cores", num_cores)
        check_positive("region_scale", region_scale)
        check_positive("jobs", jobs)
        self.num_cores = num_cores
        self.region_scale = region_scale
        self.reps = reps
        # The execution engine is intentionally absent from cache keys:
        # engines are bit-identical (the equivalence suite pins it), so a
        # cached result is valid regardless of which engine produced it.
        self.engine = engine
        self.machine = machine or MachineConfig(num_cores=num_cores)
        if self.machine.num_cores != num_cores:
            raise ValueError("machine config core count mismatch")
        self.jobs = jobs
        # Fault-injection execution plan: fork each trial's faulty pass
        # from the shared golden run's boundary snapshots (O(T + N·tail)
        # per recipe) instead of replaying from step 0 (O(N·T)).  Like
        # ``engine`` this is bit-identity-neutral (the fork-equivalence
        # suite pins it) and absent from cache keys; ``snapshot_dir``
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
        # its quarantine/metrics wiring.  A cache built here reports its
        # quarantines through this runner's progress + metrics.
        self.cache: Optional[ResultCache] = cache
        if self.cache is None and cache_dir is not None:
            self.cache = ResultCache(
                cache_dir,
                on_quarantine=lambda _p: self.progress.record_quarantine(),
            )
        #: Optional CampaignTelemetry: live frame streaming + snapshots.
        #: None (the default) keeps every execution path frame-free and
        #: byte-identical (pinned by test and benchmark guardrail).
        self.telemetry = telemetry
        # -- supervised execution (repro.resilience) -----------------------
        self.resilience = resilience or ResiliencePolicy()
        self.resilience_metrics = MetricsRegistry()
        if cache is None and self.cache is not None:
            self.cache.metrics = self.resilience_metrics
        #: Optional Tracer receiving harness-level events (task_retried,
        #: worker_died, pool_degraded, campaign_resumed).
        self.resilience_tracer: Optional[Tracer] = None
        #: Attempt histories of the most recent supervised fan-out.
        self.last_failure_report: Optional[FailureReport] = None
        #: Test/ops hooks forwarded to the Supervisor (see its docs).
        self.supervisor_hooks: Dict[str, Callable] = {}
        self._active_supervisor: Optional[Supervisor] = None
        # The write-ahead completion journal lives beside the cache by
        # default; an explicit path works cache-less (accounting only).
        if journal_path is None and self.cache is not None:
            journal_path = self.cache.journal_path()
        self.journal: Optional[CompletionJournal] = (
            CompletionJournal(journal_path) if journal_path is not None
            else None
        )
        self.resume = resume
        self._resume_keys: Dict[str, JournalRecord] = {}
        self._resume_credited: set = set()
        if resume:
            if self.journal is None:
                raise ValueError(
                    "resume=True needs a completion journal — configure "
                    "cache_dir (or journal_path)"
                )
            self._resume_keys = self.journal.load()
        #: Key locks currently held by this process (best-effort cache
        #: coordination); heartbeaten per completed task so long-running
        #: owners are not broken as stale by waiting peers.
        self._held_locks: List[KeyLock] = []
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
        found = self._lookup(workload, request)
        if found is not None:
            return found
        return self._simulate(workload, request)

    def run_many(
        self,
        pairs: Iterable[Tuple[str, ConfigRequest]],
        jobs: Optional[int] = None,
    ) -> List[RunResult]:
        """Resolve many (workload, request) pairs, fanning independent
        simulations out over a process pool when ``jobs > 1``.

        Results are returned in input order and are identical to what the
        serial :meth:`run` path produces (workers ship serialised results
        back; the checkpoint store stays worker-side).  Pairs already in
        the memo or the persistent cache are never re-simulated.

        With ``jobs > 1`` the fan-out runs under a
        :class:`~repro.resilience.supervisor.Supervisor`: hung tasks
        time out, dead workers respawn and their tasks retry with
        deterministic backoff, and repeated pool failures degrade to
        serial execution — none of which changes the results (tasks are
        deterministic; chaos tests pin bit-exactness).  Completed
        results are installed (and journaled) as they arrive, so a
        ``KeyboardInterrupt`` loses only in-flight work.
        """
        ordered = list(dict.fromkeys(pairs))
        jobs = self.jobs if jobs is None else jobs
        check_positive("jobs", jobs)

        pending = [
            (wl, req)
            for wl, req in ordered
            if self._lookup(wl, req) is None
        ]
        if self.resume:
            self._credit_resume(
                (self.cache_key(wl, req) for wl, req in ordered),
                pending_count=len(pending),
            )
        if pending:
            if jobs <= 1:
                for wl, req in pending:
                    self._simulate(wl, req)
            else:
                self._run_parallel(pending, jobs)
        return [self._results[(wl, req)] for wl, req in ordered]

    # -- fault-injection trials ----------------------------------------------
    def run_trials(
        self,
        specs: Iterable[TrialSpec],
        jobs: Optional[int] = None,
    ) -> List[TrialResult]:
        """Resolve fault-injection :class:`TrialSpec`\\ s through the same
        three layers as simulation runs: memo → persistent cache →
        execute (inline, or over a process pool when ``jobs > 1``).

        Trials are self-contained — each spec carries its own workload,
        scale and machine shape — so the runner's ``num_cores`` /
        ``region_scale`` knobs do not apply here; only its cache, pool
        and progress plumbing do.  Results come back in input order and
        are bit-identical across the serial and parallel paths (a test
        pins this).
        """
        ordered = list(dict.fromkeys(specs))
        jobs = self.jobs if jobs is None else jobs
        check_positive("jobs", jobs)

        pending = [s for s in ordered if self._lookup_trial(s) is None]
        if self.resume:
            self._credit_resume(
                (trial_cache_key(s) for s in ordered),
                pending_count=len(pending),
            )
        if pending:
            if jobs <= 1:
                for spec in pending:
                    self._execute_trial_inline(spec)
            else:
                self._run_trials_parallel(pending, jobs)
        return [self._trial_results[s] for s in ordered]

    def _execute_trial_inline(self, spec: TrialSpec) -> None:
        """Run one trial in-process (under the per-key cache lock, so a
        concurrent invocation missing on the same key waits for this
        one's entry instead of re-simulating)."""

        def execute() -> None:
            scope = self._task_scope(
                f"{spec.workload}/inject:{spec.config}#{spec.seed}"
            )
            with scope, _Timer() as timer:
                result = run_trial(
                    spec,
                    engine=self.engine,
                    snapshots=self.snapshots,
                    snapshot_store=self.snapshot_store,
                )
            self._install_trial(spec, result, "sim", timer.seconds)

        self._with_key_lock(
            trial_cache_key(spec),
            recheck=lambda: self._lookup_trial(spec) is not None,
            execute=execute,
        )

    def _run_trials_parallel(
        self, pending: Sequence[TrialSpec], jobs: int
    ) -> None:
        """Fan trials out over the supervised pool."""
        tasks = [
            SupervisedTask(
                key=trial_cache_key(spec),
                fn=_trial_execute,
                payload=(
                    spec,
                    self.engine,
                    self.snapshots,
                    (str(self.snapshot_dir)
                     if self.snapshot_dir is not None else None),
                ),
                label=f"{spec.workload}/inject:{spec.config}#{spec.seed}",
            )
            for spec in pending
        ]

        def install(task: SupervisedTask, result: Any, history) -> None:
            spec, payload, seconds = result
            self._install_trial(
                spec,
                TrialResult.from_dict(payload),
                "worker",
                seconds,
                attempts=len(history.attempts),
            )

        with self._supervisor(jobs) as sup:
            sup.run(tasks, on_complete=install)

    def _lookup_trial(self, spec: TrialSpec) -> Optional[TrialResult]:
        """Memo, then persistent cache; ``None`` means 'must execute'.

        A cached payload that fails to decode as a :class:`TrialResult`
        (truncation, hand edits, schema drift within the envelope) is
        quarantined and reported as a miss — never a crash.
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
            self.progress.record_miss()
        return None

    def _install_trial(
        self,
        spec: TrialSpec,
        result: TrialResult,
        source: str,
        seconds: float,
        attempts: int = 1,
    ) -> None:
        """Record progress and store a fresh trial result in every layer."""
        self._heartbeat_locks()
        self.progress.record(
            spec.workload, f"inject:{spec.config}", source, seconds
        )
        if self.snapshots:
            self.progress.record_forked()
        self._trial_results[spec] = result
        key = trial_cache_key(spec)
        if self.cache is not None:
            with self._phase("cache-io"):
                self.cache.store_payload(key, result.to_dict(), KIND_TRIAL)
        self._journal_done(
            key, KIND_TRIAL, f"{spec.workload}/inject:{spec.config}",
            attempts, seconds,
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
        miss).  Hits are counted here, a miss by the :meth:`run_many`
        that resolves it, so each key counts once."""
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

    def _lookup(
        self, workload: str, request: ConfigRequest
    ) -> Optional[RunResult]:
        """:meth:`lookup`, counting a cache miss."""
        found = self.lookup(workload, request)
        if found is None and self.cache is not None:
            self.progress.record_miss()
        return found

    def _simulate(self, workload: str, request: ConfigRequest) -> RunResult:
        """Execute one run in-process and store it in every layer (under
        the per-key cache lock when a cache is configured)."""
        done: List[RunResult] = []

        def execute() -> None:
            scope = self._task_scope(f"{workload}/{request.config}")
            with scope, _Timer() as timer:
                sim = self.simulator(workload)
                baseline = None
                if not request.is_baseline:
                    baseline = self.baseline(
                        workload, request.memory_seed
                    ).baseline_profile()
                result = sim.run(
                    make_options(request, baseline, engine=self.engine)
                )
            self.progress.record(
                workload, request.config, "sim", timer.seconds
            )
            if result.vector_coverage is not None:
                self.progress.record_vector_coverage(
                    result.vector_coverage["replayed_iterations"],
                    result.vector_coverage["fallback_iterations"],
                )
            self._store(
                workload, request, result, seconds=timer.seconds
            )
            done.append(result)

        def recheck() -> bool:
            found = self._lookup(workload, request)
            if found is not None:
                done.append(found)
                return True
            return False

        self._with_key_lock(
            self.cache_key(workload, request), recheck=recheck,
            execute=execute,
        )
        return done[-1]

    def _store(
        self,
        workload: str,
        request: ConfigRequest,
        result: RunResult,
        attempts: int = 1,
        seconds: float = 0.0,
    ) -> None:
        """Install a fresh result into the memo, the persistent cache
        and the completion journal."""
        self._heartbeat_locks()
        self._results[(workload, request)] = result
        key = self.cache_key(workload, request)
        if self.cache is not None:
            with self._phase("cache-io"):
                self.cache.store(key, result)
        self._journal_done(
            key, KIND_RUN, f"{workload}/{request.config}", attempts, seconds
        )

    # -- telemetry plumbing ---------------------------------------------------
    def _task_scope(self, label: str):
        """Wrap one inline task execution in its telemetry scope
        (``task_started``/heartbeats/``task_finished`` straight into the
        aggregator) — a no-op context when telemetry is off."""
        if self.telemetry is None:
            return nullcontext()
        return task_telemetry(label, self.telemetry.on_frame)

    def _phase(self, name: str):
        """Time one parent-side phase (cache I/O happens in this
        process even for pooled campaigns) on the campaign profiler."""
        if self.telemetry is None:
            return nullcontext()
        return self.telemetry.profiler.phase(name)

    # -- resilience plumbing -------------------------------------------------
    def _supervisor(self, jobs: int) -> Supervisor:
        """A configured supervised pool, registered as active so chaos
        tests and ops tooling can reach the live workers."""
        sup = Supervisor(
            self.resilience,
            jobs,
            progress=self.progress,
            tracer=self.resilience_tracer,
            metrics=self.resilience_metrics,
            telemetry=self.telemetry,
            hooks=self.supervisor_hooks,
        )
        self._active_supervisor = sup

        original_close = sup.close

        def close(force: bool = False) -> None:
            original_close(force)
            if self._active_supervisor is sup:
                self._active_supervisor = None
            self.last_failure_report = sup.failure_report

        sup.close = close  # type: ignore[method-assign]
        return sup

    def _journal_done(
        self, key: str, kind: str, label: str, attempts: int, seconds: float
    ) -> None:
        """Append one completion record to the write-ahead journal."""
        if self.journal is not None:
            self.journal.append(
                JournalRecord(
                    key=key, kind=kind, label=label,
                    attempts=attempts, seconds=seconds,
                )
            )

    def _credit_resume(
        self, keys: Iterable[str], pending_count: int
    ) -> None:
        """Count tasks the journal says are already done (each key
        credited once per runner) and surface the resume through obs."""
        fresh = [
            k for k in keys
            if k in self._resume_keys and k not in self._resume_credited
        ]
        if not fresh:
            return
        self._resume_credited.update(fresh)
        self.progress.record_resumed(len(fresh))
        self.resilience_metrics.counter("resilience.resumed_tasks").inc(
            len(fresh)
        )
        tracer = self.resilience_tracer
        if tracer is not None and getattr(tracer, "enabled", False):
            tracer.emit(
                CampaignResumed(
                    ts_ns=0.0,
                    core=MACHINE,
                    journaled=len(fresh),
                    pending=pending_count,
                )
            )

    def _heartbeat_locks(self) -> None:
        """Refresh the mtime of every currently-held key lock.

        Called per completed task (install/store time), which bounds the
        staleness clock by the longest *single* task rather than the
        whole fan-out; cheap (one utime per held lock, usually zero or
        one of them).
        """
        for lock in self._held_locks:
            lock.heartbeat()

    def _with_key_lock(
        self,
        key: str,
        recheck: Callable[[], bool],
        execute: Callable[[], None],
    ) -> None:
        """Run ``execute`` under ``key``'s best-effort cache lock.

        Without a cache there is nothing to race on — execute directly.
        When the lock is already held by a concurrent invocation, wait
        (bounded by the policy), then ``recheck`` the cache: if the
        winner published, reuse its entry; otherwise execute anyway —
        the lock is an optimisation, never a correctness gate.

        Held locks are registered on ``_held_locks`` for the duration of
        ``execute`` so :meth:`_heartbeat_locks` can refresh their mtimes
        — an owner legitimately computing past the staleness window
        (e.g. a lock held across a nested baseline run) must not get
        broken by a waiting peer.
        """
        if self.cache is None:
            execute()
            return
        lock = KeyLock(
            self.cache.lock_path(key),
            wait_s=self.resilience.lock_wait_s,
            stale_s=self.resilience.lock_stale_s,
        )
        if not lock.try_acquire():
            # Contended: another invocation is (or was) computing this
            # key — wait for it, then prefer its published entry.
            lock.acquire()
            if recheck():
                lock.release()
                return
        self._held_locks.append(lock)
        try:
            execute()
        finally:
            self._held_locks.remove(lock)
            lock.release()

    # -- parallel fan-out ----------------------------------------------------
    def _run_parallel(
        self, pending: Sequence[Tuple[str, ConfigRequest]], jobs: int
    ) -> None:
        """Fan ``pending`` out over the supervised pool, baselines first.

        Two phases: every needed NoCkpt baseline runs first (workers need
        its per-core useful-time profile to place boundaries and errors),
        then all remaining pairs run fully independently.  One supervisor
        spans both phases, so surviving workers keep their warm
        simulator memos.
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
            if key in pending_set or self._lookup(*key) is None
        ]
        phase2 = [(wl, req) for wl, req in pending if not req.is_baseline]

        with self._supervisor(jobs) as sup:
            if phase1:
                self._dispatch_supervised(sup, phase1, baselines=None)
            if phase2:
                profiles = {
                    key: list(self._results[key].per_core_useful_ns)
                    for key in baseline_reqs
                }
                self._dispatch_supervised(sup, phase2, baselines=profiles)

    def _dispatch_supervised(
        self,
        sup: Supervisor,
        pairs: Sequence[Tuple[str, ConfigRequest]],
        baselines: Optional[Dict[Tuple[str, ConfigRequest], List[float]]],
    ) -> None:
        """Run one phase of pairs through the supervisor, installing
        each result (memo + cache + journal) the moment it completes."""
        tasks: List[SupervisedTask] = []
        for wl, req in pairs:
            profile = None
            if baselines is not None:
                profile = baselines[
                    (wl, ConfigRequest("NoCkpt", memory_seed=req.memory_seed))
                ]
            tasks.append(
                SupervisedTask(
                    key=self.cache_key(wl, req),
                    fn=_worker_execute,
                    payload=(
                        wl, req, self.machine, self.region_scale, self.reps,
                        profile, self.engine,
                    ),
                    label=f"{wl}/{req.config}",
                )
            )

        def install(task: SupervisedTask, result: Any, history) -> None:
            wl, req, payload, seconds = result
            self.progress.record(wl, req.config, "worker", seconds)
            self._store(
                wl, req, RunResult.from_dict(payload),
                attempts=len(history.attempts), seconds=seconds,
            )

        sup.run(tasks, on_complete=install)

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
