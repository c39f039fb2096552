"""The simulation run loop.

A :class:`Simulator` executes one program per core over a shared memory
image, interleaving functional interpretation with the machine's timing
and energy models:

* every load/store walks the per-core cache hierarchy (stalls charged to
  the core's *useful* clock — the baseline pays them too);
* under a checkpointing scheme, the directory's log bit identifies the
  first modification of each word per interval; its old value is logged
  (a bandwidth stall, charged to the core's *overhead* clock) unless the
  ACR checkpoint handler proves it recomputable (omission: no log write);
* covered stores execute ``ASSOC-ADDR`` (one extra instruction slot plus
  an AddrMap write, charged to overhead);
* at each boundary the participating cores barrier, flush dirty lines and
  record architectural state (global: all cores at once; local: each
  communicating cluster separately, staggered);
* errors strike per the schedule; after the detection latency the run
  rolls back to the most recent *safe* checkpoint, charging waste +
  rollback + recomputation (Eqs. 2/3).

Clock model
-----------
Each core keeps two clocks: ``useful`` (progress an error-free,
checkpoint-free run would make — boundaries and error times are placed on
this axis) and ``overhead`` (everything BER adds).  Wall-clock =
useful + overhead; the run's wall time is the slowest core's.

The checkpointing protocol itself is the run's
:class:`~repro.sim.mechanism.Mechanism`; this module layers caches,
clocks, energy and observability on top of it.

Because execution is deterministic, recovery does not functionally
re-execute the lost work: rolling back and replaying would reproduce the
exact same values (fail-stop model, no data corruption), so the simulator
charges the redo time/energy and continues forward.  The *functional*
correctness of rollback+recomputation is exercised on the same mechanism
by the integration tests and the fault-injection harness, which call
:meth:`~repro.sim.mechanism.Mechanism.rollback` and compare memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

from repro.arch.config import MachineConfig
from repro.ckpt.coordinator import (
    CheckpointCostModel,
    GlobalCoordinator,
    LocalCoordinator,
    uniform_boundaries,
)
from repro.ckpt.log import LOG_RECORD_BYTES
from repro.ckpt.recovery import RecoveryEngine
from repro.compiler.embed import CompileStats, compile_program
from repro.compiler.policy import SelectionPolicy, ThresholdPolicy
from repro.energy.model import EnergyModel
from repro.errors.detection import choose_safe_checkpoint
from repro.errors.injection import ErrorSchedule, NoErrors
from repro.errors.model import ErrorModel, ErrorOccurrence
from repro.isa.interpreter import Interpreter, LoadEvent, StoreEvent
from repro.isa.program import Program
from repro.obs.events import (
    CheckpointBegin,
    CheckpointEnd,
    IntervalBoundary,
    LogWrite,
    RecoveryBegin,
    RecoveryEnd,
)
from repro.obs.metrics import MetricsRegistry, ObsReport
from repro.obs.telemetry import emit as _telemetry_mod
from repro.obs.telemetry import profile as _profile
from repro.obs.tracer import TeeTracer, Tracer
from repro.sim.machine import Machine
from repro.sim.mechanism import ASSOCIATED, LOGGED, Mechanism
from repro.sim.vector.engine import VectorCoreRunner
from repro.sim.results import (
    BaselineProfile,
    IntervalStats,
    RecoveryStats,
    RunResult,
    StatsTable,
)
from repro.util.validation import check_positive

__all__ = ["ENGINES", "SimulationOptions", "Simulator"]

_SCHEMES = ("none", "global", "local")
#: The selectable execution engines (``SimulationOptions.engine`` and
#: every ``--engine`` flag).
ENGINES = ("interp", "vector")

#: Program -> {policy -> CompiledProgram}.  ACR compilation is a pure
#: function of (program, policy); runs sweeping configurations over the
#: same programs (and both engines) share one compiled copy — which also
#: shares the vector engine's trace plans.
_COMPILE_CACHE: "WeakKeyDictionary[Program, dict]" = WeakKeyDictionary()


def _compile_cached(program: Program, policy: SelectionPolicy):
    """``compile_program`` through the per-program cache."""
    try:
        hash(policy)
    except TypeError:
        return compile_program(program, policy)
    per_program = _COMPILE_CACHE.get(program)
    if per_program is None:
        per_program = {}
        _COMPILE_CACHE[program] = per_program
    compiled = per_program.get(policy)
    if compiled is None:
        compiled = compile_program(program, policy)
        per_program[policy] = compiled
    return compiled


@dataclass(frozen=True)
class SimulationOptions:
    """Configuration of one run.

    ``baseline`` must be the profile of a ``scheme="none"`` run of the
    *same* programs on the same machine; it anchors boundary and error
    placement.  It is not needed (and ignored) when ``scheme="none"``.
    """

    label: str = "run"
    scheme: str = "global"
    acr: bool = False
    num_checkpoints: int = 25
    slice_policy: Optional[SelectionPolicy] = None
    errors: ErrorSchedule = field(default_factory=NoErrors)
    error_model: ErrorModel = field(default_factory=ErrorModel)
    baseline: Optional[BaselineProfile] = None
    memory_seed: int = 0
    chunk_iterations: int = 64
    #: Execution engine: ``"interp"`` (classic interpreter) or
    #: ``"vector"`` (plan-replay engine, bit-identical results).  Runs
    #: with observability attached always use the classic loop — the
    #: tracer needs per-access events the vector engine never creates.
    engine: str = "interp"
    #: Custom boundary times on the useful-time axis (ns, ascending, last
    #: one at the baseline's useful end).  ``None`` = uniform placement.
    #: Used by the recomputation-aware placement extension.
    boundaries: Optional[Sequence[float]] = None
    #: Event sink for the observability layer.  ``None`` (or a disabled
    #: tracer such as :class:`~repro.obs.tracer.NullTracer`) keeps the
    #: simulator on its untraced fast path — results are bit-identical
    #: to an uninstrumented run.
    tracer: Optional[Tracer] = None
    #: Collect aggregate counters/histograms into ``RunResult.obs``
    #: (implied whenever an enabled tracer is attached).
    collect_metrics: bool = False

    def __post_init__(self) -> None:
        if self.scheme not in _SCHEMES:
            raise ValueError(f"scheme must be one of {_SCHEMES}")
        if self.engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {ENGINES}, got {self.engine!r}"
            )
        check_positive("num_checkpoints", self.num_checkpoints)
        check_positive("chunk_iterations", self.chunk_iterations)
        if self.scheme != "none" and self.baseline is None:
            raise ValueError(
                "checkpointed runs need the baseline profile of a "
                "scheme='none' run for boundary placement"
            )
        if self.acr and self.scheme == "none":
            raise ValueError("ACR requires a checkpointing scheme")
        if self.boundaries is not None:
            times = list(self.boundaries)
            if not times or sorted(times) != times:
                raise ValueError("custom boundaries must be ascending")
            if len(times) != self.num_checkpoints:
                raise ValueError(
                    "custom boundaries must match num_checkpoints"
                )


class Simulator:
    """Runs one set of per-core programs under a machine configuration."""

    def __init__(
        self,
        programs: Sequence[Program],
        config: MachineConfig,
        energy_model: Optional[EnergyModel] = None,
    ) -> None:
        if len(programs) != config.num_cores:
            raise ValueError(
                f"{config.num_cores} cores need {config.num_cores} programs, "
                f"got {len(programs)}"
            )
        self.programs = list(programs)
        self.config = config
        self.energy_model = energy_model or EnergyModel()
        self._vector_certs: Optional[list] = None

    def vector_certificates(self) -> list:
        """Per-core static vector-safety certificates (lazy, cached).

        The vector engine's runtime checks decide replay; a certificate
        only names the rule a fallback is charged to.  The engine calls
        this on its first fallback, so a run that never falls back never
        certifies.

        Computed over the *plain* programs: the ACR rewrite only flips
        the ``assoc`` flag, which changes neither addresses nor
        dataflow, so one certificate set serves both plain and
        ACR-compiled runs (mirroring the shared trace-plan cache).
        """
        if self._vector_certs is None:
            from repro.verify.absint.certify import certify_run

            self._vector_certs = certify_run(self.programs)
        return self._vector_certs

    # ------------------------------------------------------------------ api --
    def run_baseline(self, label: str = "NoCkpt", memory_seed: int = 0) -> RunResult:
        """Convenience: the scheme='none' run."""
        return self.run(SimulationOptions(label=label, scheme="none",
                                          memory_seed=memory_seed))

    def run(self, options: SimulationOptions) -> RunResult:
        """Execute one full run and return its statistics."""
        runner = _Run(self, options)
        return runner.execute()


class _Run:
    """One run's mutable state (kept out of the reusable Simulator)."""

    def __init__(self, sim: Simulator, options: SimulationOptions) -> None:
        self.sim = sim
        self.options = options
        self.config = sim.config
        self.machine = Machine(sim.config, sim.energy_model, options.memory_seed)
        self.energy = sim.energy_model
        n = self.config.num_cores

        # Observability: hoist the enabled-check once so a disabled
        # tracer (the default) keeps every hot path un-instrumented.  An
        # observed run's one sink is its metrics registry, teed first
        # with any tracer so it folds every event a capped tracer drops.
        tracer = options.tracer
        self.tracer: Optional[Tracer] = (
            tracer if (tracer is not None and tracer.enabled) else None
        )
        self.metrics: Optional[MetricsRegistry] = (
            MetricsRegistry()
            if (options.collect_metrics or self.tracer is not None)
            else None
        )
        self.trace: Optional[Tracer] = (
            self.metrics if self.tracer is None
            else TeeTracer((self.metrics, self.tracer))
        )
        observing = self.trace is not None

        # Telemetry rides a separate ambient channel (never the Tracer —
        # that would force the classic engine and bypass the cache);
        # hoist the enabled-check so disabled runs stay byte-identical.
        self._telemetry = _telemetry_mod.telemetry_active()

        # Compile (ACR) or use the plain programs.
        self.compile_stats: Optional[CompileStats] = None
        tables = None
        if options.acr:
            with _profile.phase("compile"):
                policy = options.slice_policy or ThresholdPolicy()
                compiled = [_compile_cached(p, policy) for p in sim.programs]
                self.programs = [c.program for c in compiled]
                tables = [c.slices for c in compiled]
                self.compile_stats = _sum_compile_stats(
                    [c.stats for c in compiled]
                )
        else:
            self.programs = sim.programs

        # Checkpointing machinery: the mechanism over this machine's
        # memory and directory, costed by the models below.
        self.ckpt_enabled = options.scheme != "none"
        self.mech = Mechanism(
            self.config, self.machine.memory, tables,
            directory=self.machine.directory,
            log_observer=self._on_log_append if observing else None,
        )
        self._mech_on_store = self.mech.on_store
        self.cost_model = CheckpointCostModel(
            self.config, self.machine.noc, self.machine.memsys, self.energy
        )
        self.recovery_engine = RecoveryEngine(
            self.config, self.machine.memsys, self.energy
        )
        self.coordinator = (
            LocalCoordinator(n) if options.scheme == "local" else GlobalCoordinator(n)
        )
        if self.mech.handler is not None and observing:
            self.mech.handler.attach_observability(self.trace, self._core_now)

        # Per-core clocks (ns).
        self.useful = [0.0] * n
        self.overhead = [0.0] * n
        # Stall accumulators filled by the observers, drained per chunk.
        self._pending_useful = [0.0] * n
        self._pending_overhead = [0.0] * n

        # Aggregate instruction counters.
        self.n_instructions = 0
        self.n_alu = 0
        self.n_loads = 0
        self.n_stores = 0
        self.n_assoc = 0

        # Per-interval bookkeeping.
        self.intervals: List[IntervalStats] = []
        self.recoveries: List[RecoveryStats] = []
        self._flushed_lines_total = 0

        # The per-first-write log cost: the memory controller reads the
        # old value from memory (8 B) and appends the 16 B record to the
        # in-memory log, through a controller shared by
        # `cores_per_controller` cores.
        bw = self.config.mem_bandwidth_bytes_per_s
        self._log_traffic_bytes = LOG_RECORD_BYTES + 8
        self._log_stall_ns = (
            self._log_traffic_bytes * self.config.cores_per_controller / bw * 1e9
        )
        self._line_bytes = self.config.line_bytes
        self._cycle_ns = self.config.cycle_ns

        self.interpreters = [
            Interpreter(
                prog, self.machine.memory, on_load=self._on_load,
                on_store=self._on_store,
            )
            for prog in self.programs
        ]
        self.timing = self.machine.timing

        # Engine dispatch: the vector engine drives each core from trace
        # plans, falling back to the classic interpreter (observers and
        # all) segment by segment.  Observed runs stay fully classic.
        if options.engine == "vector" and not observing:
            self.engines: Sequence = [
                VectorCoreRunner(self, core) for core in range(n)
            ]
        else:
            self.engines = self.interpreters

    # ------------------------------------------------------------ observers --
    def _core_now(self, core: int) -> float:
        """``core``'s current simulated wall time (chunk-granular).

        Includes the pending stall accumulators so events emitted inside
        a chunk land between the chunk's start and end times.
        """
        return (
            self.useful[core]
            + self.overhead[core]
            + self._pending_useful[core]
            + self._pending_overhead[core]
        )

    def _on_log_append(self, rec, omitted: bool) -> None:
        """Observe one first-modification reaching the interval log."""
        core = rec.core
        self.trace.emit(LogWrite(
            ts_ns=self._core_now(core),
            core=core,
            address=rec.address,
            line=rec.address // self._line_bytes,
            size_bytes=LOG_RECORD_BYTES,
            taken=not omitted,
        ))

    def _on_load(self, ev: LoadEvent) -> None:
        core = ev.thread
        access = self.machine.hierarchies[core].access(ev.address, False)
        self._pending_useful[core] += self.timing.stall_time_ns(access)
        self.machine.directory.record_access(core, ev.address // self._line_bytes)

    def _on_store(self, ev: StoreEvent) -> None:
        core = ev.thread
        access = self.machine.hierarchies[core].access(ev.address, True)
        self._pending_useful[core] += self.timing.stall_time_ns(access)
        self.machine.directory.record_access(core, ev.address // self._line_bytes)

        if self.ckpt_enabled:
            charged = self._mech_on_store(ev)
            if charged:
                # The log write's bandwidth stall, then ASSOC-ADDR's extra
                # instruction slot + AddrMap write, in this order (float
                # addition is not associative).
                if charged & LOGGED:
                    self._pending_overhead[core] += self._log_stall_ns
                if charged & ASSOCIATED:
                    self._pending_overhead[core] += self._cycle_ns

    # ------------------------------------------------------------- execution --
    def _run_core_to(self, core: int, target_useful_ns: float) -> None:
        """Advance ``core`` until its useful clock reaches the target."""
        interp = self.engines[core]
        chunk_iters = self.options.chunk_iterations
        while self.useful[core] < target_useful_ns and not interp.done:
            chunk = interp.step_iterations(chunk_iters)
            useful_instrs = chunk.alu + chunk.loads + chunk.stores
            self.useful[core] += (
                self.timing.issue_time_ns(useful_instrs) + self._pending_useful[core]
            )
            self.overhead[core] += (
                self._pending_overhead[core] + chunk.assoc * self._cycle_ns
            )
            self._pending_useful[core] = 0.0
            self._pending_overhead[core] = 0.0
            self.n_instructions += chunk.instructions
            self.n_alu += chunk.alu
            self.n_loads += chunk.loads
            self.n_stores += chunk.stores
            self.n_assoc += chunk.assoc

    # ------------------------------------------------------------- boundaries --
    def _do_checkpoint(self, useful_mark_ns: float) -> None:
        """Establish a checkpoint at the current point."""
        n = self.config.num_cores
        clusters = self.coordinator.clusters(self.machine.directory)
        handler = self.mech.handler
        log = self.mech.store.current_log

        index = len(self.intervals)
        trace = self.trace
        # The boundary's events go to the run's sink and, with telemetry
        # on, to the ambient one (the campaign's heartbeat).
        announce = trace is not None or self._telemetry
        wall_before = 0.0
        if announce:
            wall_before = max(
                self.useful[c] + self.overhead[c] for c in range(n)
            )
            if trace is not None:
                trace.emit(CheckpointBegin(
                    ts_ns=wall_before, core=-1, index=index,
                ))

        boundary_ns_max = 0.0
        flushed_bytes = 0
        cluster_flushed: List[int] = []
        cluster_barrier: List[float] = []
        for cluster in clusters:
            members = sorted(cluster)
            # Implicit barrier: members wait for the slowest member.
            wall_max = max(self.useful[c] + self.overhead[c] for c in members)
            for c in members:
                self.overhead[c] = wall_max - self.useful[c]
            cost = self.cost_model.boundary_cost(
                members, self.machine.hierarchies, self.machine.ledger
            )
            for c in members:
                self.overhead[c] += cost.total_ns
            boundary_ns_max = max(boundary_ns_max, cost.total_ns)
            flushed_bytes += cost.flushed_bytes
            self._flushed_lines_total += cost.flushed_lines
            cluster_flushed.append(cost.flushed_bytes)
            cluster_barrier.append(cost.barrier_ns)

        # Log energy for the records of the closing interval: old-value
        # read plus record append, both DRAM traffic.
        self.machine.ledger.add(
            "ckpt.log",
            len(log.records)
            * (
                self.energy.dram_transfer_pj(self._log_traffic_bytes)
                + self.energy.handler_op_pj
            ),
        )
        if handler is not None:
            self.machine.ledger.add(
                "acr.omit",
                len(log.omitted)
                * (self.energy.addrmap_access_pj + self.energy.handler_op_pj),
            )

        wall_ns = max(self.useful[c] + self.overhead[c] for c in range(n))
        self.intervals.append(
            IntervalStats(
                index=len(self.intervals),
                useful_ns=useful_mark_ns,
                logged_records=len(log.records),
                omitted_records=len(log.omitted),
                logged_bytes=log.logged_bytes,
                omitted_bytes=log.omitted_bytes,
                flushed_bytes=flushed_bytes,
                boundary_ns=boundary_ns_max,
                clusters=len(clusters),
                footprint_bytes=len(self.machine.memory) * 8,
            )
        )
        if announce:
            boundary = IntervalBoundary(
                ts_ns=useful_mark_ns, core=-1, index=index,
                instructions=self.n_instructions,
            )
            end = CheckpointEnd(
                ts_ns=wall_ns,
                core=-1,
                index=index,
                duration_ns=wall_ns - wall_before,
                logged_records=len(log.records),
                omitted_records=len(log.omitted),
                logged_bytes=log.logged_bytes,
                flushed_bytes=flushed_bytes,
                boundary_ns=boundary_ns_max,
                cluster_flushed_bytes=tuple(cluster_flushed),
                cluster_barrier_ns=tuple(cluster_barrier),
                addrmap_occupancy=(
                    sum(a.open_size + a.committed_size
                        for a in handler.addrmaps)
                    if handler is not None else -1
                ),
            )
            if self._telemetry:
                _telemetry_mod.emit(boundary)
                _telemetry_mod.emit(end)
            if trace is not None:
                trace.emit(boundary)
                # Closes the registry's interval.
                trace.emit(end)
        self.mech.establish(useful_mark_ns, wall_ns)

    # ------------------------------------------------------------- recoveries --
    def _do_recovery(
        self, error_index: int, occurred_ns: float, detected_ns: float
    ) -> None:
        """Roll back after the detection of error ``error_index``."""
        n = self.config.num_cores
        err_core = error_index % n
        if self.options.scheme == "local":
            participants = next(
                sorted(g)
                for g in self.machine.directory.communication_groups()
                if err_core in g
            )
        else:
            participants = list(range(n))

        error = ErrorOccurrence(occurred_ns, detected_ns)
        store = self.mech.store
        ckpt_times = [c.useful_ns for c in store.checkpoints]
        choice = choose_safe_checkpoint(error, ckpt_times)
        logs = store.logs_to_rollback(choice.checkpoint_index)
        safe_wall = (
            store.checkpoints[choice.checkpoint_index].wall_ns
            if choice.checkpoint_index >= 0
            else 0.0
        )

        wall_now = max(self.useful[c] + self.overhead[c] for c in participants)
        waste_ns = max(0.0, wall_now - safe_wall)
        if self.trace is not None:
            self.trace.emit(RecoveryBegin(
                ts_ns=wall_now,
                core=err_core,
                error_index=error_index,
                safe_checkpoint=choice.checkpoint_index,
            ))
        costs = self.recovery_engine.recovery_costs(
            logs, participants, self.machine.ledger,
            tracer=self.trace, ts_ns=wall_now,
        )
        new_wall = wall_now + waste_ns + costs.total_ns
        for c in participants:
            self.overhead[c] = new_wall - self.useful[c]
        if self.trace is not None:
            self.trace.emit(RecoveryEnd(
                ts_ns=new_wall,
                core=err_core,
                error_index=error_index,
                duration_ns=new_wall - wall_now,
                waste_ns=waste_ns,
                rollback_ns=costs.rollback_ns,
                recompute_ns=costs.recompute_ns,
                restored_records=costs.restored_records,
                recomputed_values=costs.recomputed_values,
            ))

        self.recoveries.append(
            RecoveryStats(
                error_index=error_index,
                occurred_useful_ns=occurred_ns,
                detected_useful_ns=detected_ns,
                safe_checkpoint=choice.checkpoint_index,
                skipped_corrupted=choice.skipped_corrupted,
                participants=len(participants),
                waste_ns=waste_ns,
                rollback_ns=costs.rollback_ns,
                recompute_ns=costs.recompute_ns,
                restored_records=costs.restored_records,
                recomputed_values=costs.recomputed_values,
                recompute_instructions=costs.recompute_instructions,
            )
        )

    # ------------------------------------------------------------------ main --
    def execute(self) -> RunResult:
        """Run to completion and assemble the result."""
        options = self.options
        n = self.config.num_cores

        if not self.ckpt_enabled:
            with _profile.phase("simulate"):
                for core in range(n):
                    self._run_core_to(core, float("inf"))
            return self._finish()

        profile = options.baseline
        assert profile is not None
        if len(profile.per_core_useful_ns) != n:
            raise ValueError("baseline profile core count mismatch")
        useful_max = profile.useful_ns
        per_core_total = profile.per_core_useful_ns

        # Event timeline in *fractions of useful progress*: boundaries at
        # k/N; error detections per the schedule + detection latency
        # (latency expressed on the useful axis, bounded by one period).
        events: List[Tuple[float, int, Tuple]] = []
        boundary_times = (
            list(options.boundaries)
            if options.boundaries is not None
            else uniform_boundaries(useful_max, options.num_checkpoints)
        )
        for k, t in enumerate(boundary_times):
            events.append((min(t, useful_max) / useful_max, 0, ("ckpt", k)))
        period_ns = useful_max / options.num_checkpoints
        for idx, occurred in enumerate(
            options.errors.occurrence_times(useful_max)
        ):
            occ = options.error_model.occurrence(occurred, period_ns)
            detected = min(occ.detected_ns, useful_max)
            events.append(
                (detected / useful_max, 1, ("error", idx, occ.occurred_ns, detected))
            )
        events.sort(key=lambda e: (e[0], e[1]))

        with _profile.phase("simulate"):
            for frac, _prio, payload in events:
                for core in range(n):
                    self._run_core_to(core, frac * per_core_total[core])
                if payload[0] == "ckpt":
                    self._do_checkpoint(frac * useful_max)
                else:
                    _, idx, occurred_ns, detected_ns = payload
                    self._do_recovery(idx, occurred_ns, detected_ns)

            # Drain any remainder (rounding in per-core targets).
            for core in range(n):
                self._run_core_to(core, float("inf"))
        return self._finish()

    # ------------------------------------------------------------ accounting --
    def _finish(self) -> RunResult:
        """Flush accounting and assemble, under the accounting phase."""
        with _profile.phase("accounting"):
            return self._finish_impl()

    def _finish_impl(self) -> RunResult:
        """Flush bulk energy accounting and build the RunResult."""
        machine = self.machine
        ledger = machine.ledger
        energy = self.energy
        n = self.config.num_cores

        ledger.add("core.alu", self.n_alu * energy.alu_op_pj)
        ledger.add("core.ifetch", self.n_instructions * energy.ifetch_pj)
        ledger.add("mem.l1d", machine.l1d_accesses() * energy.l1d_access_pj)
        ledger.add("mem.l2", machine.l2_accesses() * energy.l2_access_pj)
        demand_lines = machine.memory_accesses()
        evict_lines = max(0, machine.writebacks() - self._flushed_lines_total)
        ledger.add(
            "mem.dram",
            energy.dram_transfer_pj(
                (demand_lines + evict_lines) * self.config.line_bytes
            ),
        )
        handler = self.mech.handler
        if handler is not None:
            ledger.add(
                "acr.assoc",
                handler.assoc_executed
                * (energy.addrmap_access_pj + energy.handler_op_pj),
            )
            ledger.add(
                "acr.lookup",
                handler.omission_lookups * energy.addrmap_access_pj,
            )

        wall_ns = max(
            self.useful[c] + self.overhead[c] for c in range(n)
        )

        # Redo (waste) energy: the dynamic energy of re-executing the lost
        # work, estimated from the run's average dynamic power.
        useful_total = max(self.useful)
        if self.recoveries and useful_total > 0:
            exec_pj = ledger.total_pj("core.") + ledger.total_pj("mem.")
            for rec in self.recoveries:
                share = rec.participants / n
                ledger.add(
                    "rec.waste",
                    exec_pj * (rec.waste_ns / useful_total) * share,
                )

        ledger.add("static.leakage", energy.leakage_pj(n, wall_ns))

        obs: Optional[ObsReport] = None
        if self.metrics is not None:
            obs = ObsReport(
                metrics=self.metrics,
                events_captured=getattr(self.tracer, "captured", 0),
                events_dropped=getattr(self.tracer, "dropped", 0),
            )

        # Vector-engine coverage: aggregate the per-core counters when
        # the run was driven by VectorCoreRunners (duck-typed — classic
        # interpreters carry no coverage attributes).
        vector_coverage: Optional[Dict[str, int]] = None
        if self.engines and hasattr(self.engines[0], "replayed_iterations"):
            vector_coverage = {
                "replayed_iterations": sum(
                    e.replayed_iterations for e in self.engines
                ),
                "fallback_iterations": sum(
                    e.fallback_iterations for e in self.engines
                ),
            }
            for engine in self.engines:
                for reason, count in engine.fallback_reasons.items():
                    key = f"fallback.{reason}"
                    vector_coverage[key] = vector_coverage.get(key, 0) + count

        return RunResult(
            label=self.options.label,
            scheme=self.options.scheme,
            acr=self.options.acr,
            num_cores=n,
            wall_ns=wall_ns,
            per_core_useful_ns=list(self.useful),
            per_core_overhead_ns=list(self.overhead),
            energy=ledger,
            intervals=StatsTable.from_rows(IntervalStats, self.intervals),
            recoveries=StatsTable.from_rows(RecoveryStats, self.recoveries),
            instructions=self.n_instructions,
            alu_ops=self.n_alu,
            loads=self.n_loads,
            stores=self.n_stores,
            assoc_ops=self.n_assoc,
            l1d_accesses=machine.l1d_accesses(),
            l2_accesses=machine.l2_accesses(),
            memory_accesses=machine.memory_accesses(),
            writebacks=machine.writebacks(),
            compile_stats=self.compile_stats,
            addrmap_records=(
                sum(a.records for a in handler.addrmaps) if handler else 0
            ),
            addrmap_rejections=(
                sum(a.rejections for a in handler.addrmaps) if handler else 0
            ),
            omissions=handler.omissions if handler else 0,
            omission_lookups=handler.omission_lookups if handler else 0,
            checkpoint_store=self.mech.store,
            obs=obs,
            vector_coverage=vector_coverage,
        )


def _sum_compile_stats(stats: Sequence[CompileStats]) -> CompileStats:
    """Aggregate per-thread compile statistics."""
    return CompileStats(
        sites_total=sum(s.sites_total for s in stats),
        sites_sliceable=sum(s.sites_sliceable for s in stats),
        sites_embedded=sum(s.sites_embedded for s in stats),
        sites_loop_carried=sum(s.sites_loop_carried for s in stats),
        sites_trivial=sum(s.sites_trivial for s in stats),
        embedded_bytes=sum(s.embedded_bytes for s in stats),
    )
