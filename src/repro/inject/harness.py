"""One fault-injection trial: flip a bit, recover, verify bit-exactly.

A trial executes the same workload twice through the simulator's own
:class:`~repro.sim.mechanism.Mechanism` under real interpreters:

* the **golden pass** runs error-free and snapshots memory at every
  checkpoint plus the final state;
* the **faulty pass** replays the identical deterministic execution,
  flips one bit in live state at a schedule-driven step, lets execution
  continue until the scheduled detection point, then performs the
  paper's recovery — :func:`choose_safe_checkpoint` over the real
  establishment times, log application newest-first, Slice recomputation
  of omitted records — and resumes to completion.

Verification is *semantic bit-exactness* against the golden pass at two
points: immediately after rollback (against the safe checkpoint's
snapshot) and at program end (against the golden final state).  Memory
snapshots only hold explicitly-written words, and a rollback may
materialise a word at its deterministic initial value, so absent keys
compare as :meth:`MemoryImage.initial_value`.

Injection targets (each mapped to a paper mechanism in DESIGN §3.3):

``mem``
    Flip a bit of a memory word whose address is covered by the open
    interval's log (a logged or omitted first-modification).  The
    oldest applied log wins during rollback, so recovery must restore
    the pre-corruption value exactly.
``log``
    Flip a bit inside a *retained but never-applied* interval-log
    record (the newest completed checkpoint's log: rollback applies the
    open log plus logs younger than the safe checkpoint, and the safe
    checkpoint under latency ≤ period is precisely the newest completed
    one at occurrence time).  Recovery must ignore the corruption; an
    over-application bug surfaces as a divergence.
``addrmap``
    Replace a committed AddrMap entry with a copy whose operand
    snapshot has one bit flipped (entries are frozen).  Lookup ECC
    detects the damaged snapshot: :meth:`may_omit` hits are refused and
    the store logs normally, so recovery never executes a corrupt
    Slice.  ACR configurations only.
``arch``
    Flip a bit of a live architectural register.  Rollback restores the
    architectural snapshot of the safe checkpoint, and deterministic
    re-execution must reconverge to the golden final state.

When a requested target is not viable at the drawn injection point
(e.g. ``log`` before any checkpoint exists, ``addrmap`` under BER), the
injector falls back along ``requested → mem → arch``; the provenance
records both the requested and the actual target.

A deliberately seeded recovery defect (``TrialSpec.defect``) replaces
the production rollback with a broken variant — the campaign's own
verifier must catch it as a divergence with correct provenance, which
is how the harness proves it can detect real bugs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.arch.buffers import AddrMapEntry
from repro.arch.config import MachineConfig
from repro.ckpt.log import IntervalLog, OmittedRecord
from repro.ckpt.recovery import RecoveryEngine
from repro.compiler.policy import ThresholdPolicy
from repro.compiler.slices import SliceTable
from repro.errors.detection import choose_safe_checkpoint
from repro.errors.model import ErrorModel, ErrorOccurrence
from repro.isa.interpreter import Interpreter, MemoryImage
from repro.isa.program import Program
from repro.obs.events import (
    MACHINE,
    FaultInjected,
    IntervalBoundary,
    RecoveryDiverged,
    RecoveryVerified,
)
from repro.obs.telemetry import emit as _telemetry_mod
from repro.obs.tracer import Tracer
from repro.sim.mechanism import Mechanism, SnapshotRecorder
from repro.sim.simulator import _compile_cached
from repro.sim.snapshot import (
    SNAPSHOT_VERSION,
    SimHistory,
    SnapshotError,
    SnapshotStore,
    check_int,
    check_words,
    decode_payload,
    encode_payload,
)
from repro.util.rng import DeterministicRng
from repro.util.validation import check_in_range, check_positive, require_fields
from repro.workloads.registry import get_workload

__all__ = [
    "CONFIGS",
    "DEFECTS",
    "OUTCOMES",
    "TARGET_KINDS",
    "Divergence",
    "GoldenRun",
    "Injection",
    "TrialResult",
    "TrialSpec",
    "fork",
    "golden_key",
    "run_golden",
    "run_trial",
]

#: Injection target kinds, in campaign rotation order.
TARGET_KINDS = ("mem", "log", "addrmap", "arch")

#: Checkpointing configurations a trial can exercise: the BER baseline
#: (every first-modification logged) and ACR (omission + recomputation).
CONFIGS = ("BER", "ACR")

#: Trial outcomes.
OUTCOMES = ("recovered-exact", "diverged", "unrecoverable")

#: Deliberately seeded recovery defects (verifier self-tests).
#: ``skip-recompute`` drops one omitted record's Slice re-execution
#: (the oldest applied log's first omission — nothing overwrites it);
#: ``misorder-logs`` applies interval logs oldest-first, violating the
#: newest-first/oldest-wins rule of §III-B.
DEFECTS = ("skip-recompute", "misorder-logs")

#: At most this many per-address divergences are kept on a result (the
#: total count is always exact).
MAX_REPORTED_DIVERGENCES = 16

_WORD_BITS = 64


def _check_int(name: str, value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class TrialSpec:
    """Everything that determines one fault-injection trial.

    The spec is the complete recipe: two trials with equal specs produce
    bit-identical results, which is what makes per-trial caching sound
    (:func:`repro.experiments.cache.trial_cache_key` hashes every field
    via :meth:`canonical_key`).
    """

    workload: str
    config: str = "ACR"
    seed: int = 0
    target: str = "mem"
    num_cores: int = 2
    steps_per_interval: int = 4
    iters_per_step: int = 8
    region_scale: float = 0.05
    reps: Optional[int] = 4
    threshold: Optional[int] = None
    memory_seed: int = 0
    detection_latency_fraction: float = 0.5
    defect: Optional[str] = None

    def __post_init__(self) -> None:
        if self.config not in CONFIGS:
            raise ValueError(f"unknown config {self.config!r} (use BER|ACR)")
        if self.target not in TARGET_KINDS:
            raise ValueError(
                f"unknown injection target {self.target!r} "
                f"(use {'|'.join(TARGET_KINDS)})"
            )
        if self.defect is not None and self.defect not in DEFECTS:
            raise ValueError(
                f"unknown defect {self.defect!r} (use {'|'.join(DEFECTS)})"
            )
        check_positive("num_cores", self.num_cores)
        check_positive("steps_per_interval", self.steps_per_interval)
        check_positive("iters_per_step", self.iters_per_step)
        check_positive("region_scale", self.region_scale)
        check_in_range(
            "detection_latency_fraction",
            self.detection_latency_fraction,
            0.0,
            1.0,
        )

    def canonical_key(self) -> Tuple[Tuple[str, Any], ...]:
        """Every field as sorted (name, value) pairs — the cache-key
        contribution of this trial (mirrors ``ConfigRequest``)."""
        return tuple(
            (f.name, getattr(self, f.name))
            for f in sorted(fields(self), key=lambda f: f.name)
        )

    def to_dict(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, doc: Any) -> "TrialSpec":
        doc = require_fields(doc, cls, cls.__name__)
        return cls(**doc)  # __post_init__ re-validates


@dataclass(frozen=True)
class Injection:
    """Provenance of one bit flip.

    ``requested`` is the campaign's target kind; ``kind`` is what was
    actually hit after viability fallback.  ``interval`` is the open
    checkpoint interval at injection time, ``step`` the harness step
    count at the flip.  ``address`` is ``-1`` for architectural flips;
    ``register`` is ``-1`` for everything else.  ``before``/``after``
    are the 64-bit values around the flip.
    """

    requested: str
    kind: str
    step: int
    interval: int
    core: int
    address: int
    register: int
    bit: int
    before: int
    after: int
    detail: str

    def to_dict(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, doc: Any) -> "Injection":
        doc = require_fields(doc, cls, cls.__name__)
        if doc["kind"] not in TARGET_KINDS or doc["requested"] not in TARGET_KINDS:
            raise ValueError("bad injection target kind")
        for name in ("step", "interval", "core", "address", "register",
                     "bit", "before", "after"):
            _check_int(name, doc[name])
        if not isinstance(doc["detail"], str):
            raise ValueError("injection detail must be a string")
        return cls(**doc)


@dataclass(frozen=True)
class Divergence:
    """One address where recovered state disagreed with the golden run.

    ``phase`` is ``rollback`` (compared against the safe checkpoint's
    snapshot; ``interval`` is that checkpoint's index) or ``final``
    (compared against the golden end state; ``interval`` is ``-1``).
    """

    phase: str
    address: int
    interval: int
    expected: int
    actual: int

    def to_dict(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, doc: Any) -> "Divergence":
        doc = require_fields(doc, cls, cls.__name__)
        if doc["phase"] not in ("rollback", "final"):
            raise ValueError(f"bad divergence phase {doc['phase']!r}")
        for name in ("address", "interval", "expected", "actual"):
            _check_int(name, doc[name])
        return cls(**doc)


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one trial (JSON round-trippable, cached per trial).

    Times (``occurred``/``detected``) are on the harness's period axis:
    checkpoint ``k`` is established at time ``k + 1``; one checkpoint
    interval is ``1.0``.
    """

    spec: TrialSpec
    outcome: str
    injection: Injection
    occurred: float
    detected: float
    injection_step: int
    detection_step: int
    steps: int
    checkpoints: int
    safe_checkpoint: int
    skipped_corrupted: bool
    restored_records: int
    recomputed_values: int
    ecc_lookup_hits: int
    addresses_checked: int
    divergence_count: int
    divergences: Tuple[Divergence, ...]
    detail: str

    @property
    def recovered_exactly(self) -> bool:
        return self.outcome == "recovered-exact"

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "spec":
                doc[f.name] = value.to_dict()
            elif f.name == "injection":
                doc[f.name] = value.to_dict()
            elif f.name == "divergences":
                doc[f.name] = [d.to_dict() for d in value]
            else:
                doc[f.name] = value
        return doc

    @classmethod
    def from_dict(cls, doc: Any) -> "TrialResult":
        doc = dict(require_fields(doc, cls, cls.__name__))
        doc["spec"] = TrialSpec.from_dict(doc["spec"])
        doc["injection"] = Injection.from_dict(doc["injection"])
        if not isinstance(doc["divergences"], list):
            raise ValueError("divergences must be a list")
        doc["divergences"] = tuple(
            Divergence.from_dict(d) for d in doc["divergences"]
        )
        if doc["outcome"] not in OUTCOMES:
            raise ValueError(f"bad outcome {doc['outcome']!r}")
        for name in ("injection_step", "detection_step", "steps",
                     "checkpoints", "restored_records", "recomputed_values",
                     "ecc_lookup_hits", "addresses_checked",
                     "divergence_count"):
            if _check_int(name, doc[name]) < 0:
                raise ValueError(f"{name} must be non-negative")
        _check_int("safe_checkpoint", doc["safe_checkpoint"])
        for name in ("occurred", "detected"):
            if not isinstance(doc[name], (int, float)) or isinstance(
                doc[name], bool
            ):
                raise ValueError(f"{name} must be a number")
            doc[name] = float(doc[name])
        if not isinstance(doc["skipped_corrupted"], bool):
            raise ValueError("skipped_corrupted must be a boolean")
        if not isinstance(doc["detail"], str):
            raise ValueError("detail must be a string")
        if doc["outcome"] == "diverged" and doc["divergence_count"] == 0:
            raise ValueError("diverged outcome with zero divergences")
        return cls(**doc)


# --------------------------------------------------------------------------
# The mechanism pass: the run's Mechanism driven step by step.
# --------------------------------------------------------------------------
class _MechanismPass:
    """One execution of the workload through a :class:`Mechanism`.

    Interpreters store straight into the mechanism, on a step grid the
    injector can address: one *step* is ``iters_per_step`` iterations on
    every live core, and a checkpoint is established every
    ``steps_per_interval`` steps (at time ``step / steps_per_interval``
    on the period axis, so checkpoint ``k`` lands at ``k + 1``).  No
    cache or timing model runs: a trial needs only functional state.
    """

    def __init__(
        self,
        spec: TrialSpec,
        programs: Sequence[Program],
        slice_tables: Optional[Sequence[SliceTable]],
        config: MachineConfig,
    ) -> None:
        self.spec = spec
        self.mech = Mechanism(
            config, MemoryImage(seed=spec.memory_seed), slice_tables
        )
        self.memory = self.mech.memory
        self.interpreters = [
            Interpreter(p, self.memory, on_store=self.mech.on_store)
            for p in programs
        ]
        self.initial_arch = [it.arch_state() for it in self.interpreters]
        self.arch_snapshots: List[List[Tuple[int, int, List[int]]]] = []
        self.steps = 0
        self.n_instructions = 0
        # Advisory telemetry channel (repro.obs.telemetry): sampled once
        # here so a disabled campaign pays a single module-global read.
        self._telemetry = _telemetry_mod.telemetry_active()

    # -- stepping ------------------------------------------------------------
    @property
    def all_done(self) -> bool:
        return all(it.done for it in self.interpreters)

    def step(self) -> None:
        for it in self.interpreters:
            if not it.done:
                chunk = it.step_iterations(self.spec.iters_per_step)
                self.n_instructions += chunk.instructions
        self.steps += 1

    def at_boundary(self) -> bool:
        return self.steps % self.spec.steps_per_interval == 0

    def checkpoint(self) -> None:
        """Establish the next checkpoint (boundary protocol)."""
        time = self.steps / self.spec.steps_per_interval
        if self._telemetry:
            # The campaign's heartbeat; a pass has no cost model, so no
            # checkpoint_end follows it.
            _telemetry_mod.emit(IntervalBoundary(
                ts_ns=time, core=MACHINE, index=self.mech.store.count,
                instructions=self.n_instructions,
            ))
        self.arch_snapshots.append(
            [it.arch_state() for it in self.interpreters]
        )
        self.mech.establish(time, time)

    def run_to_end(
        self, on_checkpoint: Optional[Callable[[], None]] = None
    ) -> None:
        """The golden pass: run error-free, checkpointing on schedule
        (``on_checkpoint`` runs after each establishment)."""
        while not self.all_done:
            self.step()
            if self.at_boundary() and not self.all_done:
                self.checkpoint()
                if on_checkpoint is not None:
                    on_checkpoint()

    def resume_to_end(self) -> None:
        """Post-recovery: run out the program with the mechanism detached."""
        for it in self.interpreters:
            it.on_store = None
            while not it.done:
                it.step_iterations(1 << 20)

    # -- snapshot / fork -----------------------------------------------------
    def record_boundary(self, recorder: SnapshotRecorder) -> None:
        """Record the interval just closed, with this pass's step grid
        and its architectural state at the boundary."""
        recorder.record(self.arch_snapshots[-1], self.steps,
                        self.n_instructions)

    def restore_snapshot(self, history: SimHistory, boundary: int) -> None:
        """Install ``history``'s state at ``boundary`` into this (freshly
        built) pass.

        The pass must have been built from the same recipe the history
        was recorded under — programs and Slices are *rehydrated* from
        this pass's deterministic compile, never deserialized.  The
        architectural history is the recorded rows, shared: interpreters
        copy a row's registers when they restore it.  Raises
        :class:`SnapshotError` when the history does not fit.
        """
        n_cores = len(self.interpreters)
        if len(history.initial_arch) != n_cores:
            raise SnapshotError(
                f"snapshot covers {len(history.initial_arch)} cores, "
                f"this pass has {n_cores}"
            )
        self.mech.restore(history, boundary)
        self.initial_arch = history.initial_arch
        self.arch_snapshots = [r.arch for r in history.intervals[:boundary]]
        if not boundary:
            return
        last = history.intervals[boundary - 1]
        for it, row in zip(self.interpreters, last.arch):
            it.restore_arch_state(row)
        self.steps = last.step
        self.n_instructions = last.n_instructions

    # -- injection -----------------------------------------------------------
    def inject(self, rng: DeterministicRng, requested: str) -> Injection:
        """Flip one bit per the requested target, falling back along
        ``requested → mem → arch`` when a target is not viable here."""
        chain = [requested] + [k for k in ("mem", "arch") if k != requested]
        for kind in chain:
            inj = getattr(self, f"_inject_{kind}")(rng)
            if inj is not None:
                return replace(inj, requested=requested)
        raise ValueError(
            "no viable injection target (workload produced no state?)"
        )

    def _inject_mem(self, rng: DeterministicRng) -> Optional[Injection]:
        store = self.mech.store
        log = store.current_log
        covered = {r.address for r in log.records}
        covered.update(o.address for o in log.omitted)
        if not covered:
            return None
        candidates = sorted(covered)
        address = candidates[rng.randint(0, len(candidates) - 1)]
        bit = rng.randint(0, _WORD_BITS - 1)
        before = self.memory.read(address)
        after = before ^ (1 << bit)
        self.memory.write(address, after)  # the fault bypasses the log path
        return Injection(
            requested="", kind="mem", step=self.steps,
            interval=store.count, core=MACHINE, address=address,
            register=-1, bit=bit, before=before, after=after,
            detail=f"word covered by open-interval log "
                   f"({len(candidates)} candidates)",
        )

    def _inject_log(self, rng: DeterministicRng) -> Optional[Injection]:
        store = self.mech.store
        if not store.checkpoints:
            return None
        ckpt = store.checkpoints[-1]
        if not ckpt.log.records:
            return None
        idx = rng.randint(0, len(ckpt.log.records) - 1)
        rec = ckpt.log.records[idx]
        bit = rng.randint(0, _WORD_BITS - 1)
        corrupted = rec.old_value ^ (1 << bit)
        # LogRecord is frozen: model the flip by replacing the record in
        # the retained log storage.
        ckpt.log.records[idx] = type(rec)(rec.address, corrupted, rec.core)
        return Injection(
            requested="", kind="log", step=self.steps,
            interval=store.count, core=rec.core, address=rec.address,
            register=-1, bit=bit, before=rec.old_value, after=corrupted,
            detail=f"record {idx} of checkpoint {ckpt.index}'s log "
                   f"(retained, never applied)",
        )

    def _inject_addrmap(self, rng: DeterministicRng) -> Optional[Injection]:
        handler = self.mech.handler
        if handler is None:
            return None
        # Entries already referenced by an omitted record would feed a
        # corrupt operand straight into an *applied* recomputation whose
        # result can be the oldest write to its address — those model a
        # different (unprotected) failure mode, so the ECC-at-lookup
        # semantics pick among unreferenced entries only.
        store = self.mech.store
        used: Set[int] = set()
        for log in [store.current_log] + [c.log for c in store.checkpoints]:
            for om in log.omitted:
                used.add(id(om.entry))
        candidates: List[Tuple[int, AddrMapEntry]] = []
        for core, addrmap in enumerate(handler.addrmaps):
            for entry in addrmap.committed_entries():
                if id(entry) not in used and entry.operands:
                    candidates.append((core, entry))
        if not candidates:
            return None
        core, entry = candidates[rng.randint(0, len(candidates) - 1)]
        op_index = rng.randint(0, len(entry.operands) - 1)
        bit = rng.randint(0, _WORD_BITS - 1)
        before = entry.operands[op_index]
        after = before ^ (1 << bit)
        operands = tuple(
            after if i == op_index else v
            for i, v in enumerate(entry.operands)
        )
        flipped = AddrMapEntry(entry.address, entry.slice_, operands)
        if not handler.addrmaps[core].swap_committed(entry, flipped):
            return None
        return Injection(
            requested="", kind="addrmap", step=self.steps,
            interval=store.count, core=core, address=entry.address,
            register=-1, bit=bit, before=before, after=after,
            detail=f"operand {op_index} of slice site "
                   f"{entry.slice_.site} (committed generation)",
        )

    def _inject_arch(self, rng: DeterministicRng) -> Optional[Injection]:
        live = [i for i, it in enumerate(self.interpreters) if not it.done]
        if not live:
            return None
        core = live[rng.randint(0, len(live) - 1)]
        kernel, iteration, regs = self.interpreters[core].arch_state()
        if not regs:
            return None
        register = rng.randint(0, len(regs) - 1)
        bit = rng.randint(0, _WORD_BITS - 1)
        before = regs[register]
        after = before ^ (1 << bit)
        regs[register] = after
        self.interpreters[core].restore_arch_state((kernel, iteration, regs))
        return Injection(
            requested="", kind="arch", step=self.steps,
            interval=self.mech.store.count, core=core, address=-1,
            register=register, bit=bit, before=before, after=after,
            detail=f"r{register} at kernel {kernel} iteration {iteration}",
        )

    # -- recovery ------------------------------------------------------------
    def restore_arch(self, safe_index: int) -> None:
        states = (
            self.arch_snapshots[safe_index]
            if safe_index >= 0
            else self.initial_arch
        )
        for it, state in zip(self.interpreters, states):
            it.restore_arch_state(state)


def _oldest_omission(logs: Sequence[IntervalLog]) -> Optional[OmittedRecord]:
    """The first omitted record of the *oldest* applied log: no older log
    overwrites its address, so skipping its recomputation is
    load-bearing."""
    for log in reversed(logs):
        if log.omitted:
            return log.omitted[0]
    return None


def _skip_recompute(memory: MemoryImage, logs: Sequence[IntervalLog]) -> None:
    skip = _oldest_omission(logs)
    for log in logs:
        for rec in log.records:
            memory.write(rec.address, rec.old_value)
        for om in log.omitted:
            if om is not skip:
                value = om.entry.slice_.execute(om.entry.operands)
                memory.write(om.address, value)


def _misorder_logs(memory: MemoryImage, logs: Sequence[IntervalLog]) -> None:
    RecoveryEngine.apply_rollback(memory, list(reversed(logs)))


#: Seeded defect (``None``: production) -> the restore
#: :meth:`Mechanism.rollback` applies.
_RESTORES: Dict[Optional[str], Callable[..., Any]] = {
    None: RecoveryEngine.apply_rollback,
    "skip-recompute": _skip_recompute,
    "misorder-logs": _misorder_logs,
}


def _defect_note(defect: Optional[str], logs: Sequence[IntervalLog]) -> str:
    """Provenance of the sabotage performed ("" for the production path),
    carried by divergence reports."""
    if defect is None:
        return ""
    if defect == "misorder-logs":
        return "defect: logs applied oldest-first"
    skip = _oldest_omission(logs)
    if skip is None:
        return "defect: skip-recompute (no omitted records in scope)"
    return f"defect: skipped recompute of address {skip.address:#x}"


def _diff_memory(
    expected: Dict[int, int],
    memory: MemoryImage,
    phase: str,
    interval: int,
) -> Tuple[int, int, List[Divergence]]:
    """Semantic bit-exact compare: (addresses checked, mismatches, sample).

    ``expected`` is a golden image's written words; addresses absent
    on either side compare at their deterministic initial value (both
    images share the seed), so materialised-but-unchanged words are not
    false divergences.
    """
    actual = memory.snapshot()
    addresses = sorted(set(expected) | set(actual))
    count = 0
    sample: List[Divergence] = []
    for address in addresses:
        want = expected.get(address)
        if want is None:
            want = memory.initial_value(address)
        got = actual.get(address)
        if got is None:
            got = memory.initial_value(address)
        if want != got:
            count += 1
            if len(sample) < MAX_REPORTED_DIVERGENCES:
                sample.append(
                    Divergence(phase, address, interval, want, got)
                )
    return len(addresses), count, sample


#: TrialSpec fields that determine the raw workload build.  Neither the
#: configuration nor the threshold is among them: the BER and ACR recipes
#: of a workload run the same raw programs (ACR through its compiled
#: copy).
_BUILD_FIELDS = ("workload", "num_cores", "region_scale", "reps")

#: TrialSpec fields that determine the compiled workload (programs,
#: slice tables, machine config) — injection schedule fields excluded.
_COMPILE_FIELDS = _BUILD_FIELDS + ("config", "threshold")

#: Compile fields plus the execution grid and initial memory contents:
#: everything that determines the golden (error-free) pass.  The trial
#: randomisation fields (``seed``/``target``/``detection_latency_fraction``
#: /``defect``) are deliberately excluded, so every trial of one
#: (workload, config) recipe shares a single golden run.
_GOLDEN_FIELDS = _COMPILE_FIELDS + (
    "steps_per_interval", "iters_per_step", "memory_seed",
)

#: In-process memo caps.  A campaign rotates a handful of (workload,
#: config) recipes; workers keep their own module-global memos.
_MEMO_CAP = 8

_BUILD_MEMO: Dict[Tuple, List[Program]] = {}
_GOLDEN_MEMO: Dict[str, "GoldenRun"] = {}


def _memo_put(memo: Dict, key: Any, value: Any) -> None:
    while len(memo) >= _MEMO_CAP:
        memo.pop(next(iter(memo)))
    memo[key] = value


def _compiled(
    spec: TrialSpec,
) -> Tuple[List[Program], Optional[List[SliceTable]], MachineConfig]:
    """The compiled workload for ``spec``, shared across trials.

    The raw build is memoized by :data:`_BUILD_FIELDS`, and ACR compiles
    it through the simulator's per-program compile cache.  Programs are
    immutable after construction, so sharing them across trials and
    recipes is both sound and the point: a fork never rebuilds or
    recompiles.
    """
    key = tuple(getattr(spec, name) for name in _BUILD_FIELDS)
    workload = get_workload(spec.workload)
    programs = _BUILD_MEMO.get(key)
    if programs is None:
        programs = workload.build_programs(
            spec.num_cores, region_scale=spec.region_scale, reps=spec.reps
        )
        _memo_put(_BUILD_MEMO, key, programs)
    config = MachineConfig(num_cores=spec.num_cores)
    if spec.config != "ACR":
        return programs, None, config
    threshold = (
        spec.threshold
        if spec.threshold is not None
        else workload.default_threshold
    )
    policy = ThresholdPolicy(threshold)
    compiled = [_compile_cached(p, policy) for p in programs]
    return (
        [c.program for c in compiled], [c.slices for c in compiled], config
    )


def golden_key(spec: TrialSpec) -> str:
    """Content address of a golden run: recipe + format version."""
    doc = {
        "snapshot_version": SNAPSHOT_VERSION,
        "spec": {name: getattr(spec, name) for name in _GOLDEN_FIELDS},
    }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class GoldenRun:
    """One golden pass: its boundaries and its end state.

    ``history`` records every interval boundary: boundary ``m`` is the
    state at step ``m * steps_per_interval`` (boundary 0 is the initial
    state, later ones land right after each checkpoint establishment).
    A faulty pass injecting at step ``s`` forks from boundary
    ``s // steps_per_interval``, the newest at or before the injection.
    The memory expectation of a rollback to checkpoint ``k`` is
    ``history.memory_at(k + 1)``, and ``final_words`` is the golden end
    state.
    """

    total_steps: int
    #: The written words at the end, insertion ordered.
    final_words: Dict[int, int]
    history: SimHistory

    def to_payload(self) -> Dict[str, Any]:
        return {
            "v": SNAPSHOT_VERSION,
            "total_steps": self.total_steps,
            "final_words": list(self.final_words.items()),
            "history": self.history.to_payload(),
        }

    @classmethod
    def from_payload(cls, doc: Any) -> "GoldenRun":
        """Decode a payload dict; raises :class:`SnapshotError` on any
        malformed field (see :meth:`SimHistory.from_payload`)."""
        require_fields(doc, cls, "golden-run", extra=("v",),
                       error=SnapshotError)
        if doc["v"] != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"golden-run payload version {doc['v']!r} != "
                f"{SNAPSHOT_VERSION}"
            )
        total_steps = check_int("total_steps", doc["total_steps"], 0)
        final_words = check_words("final_words", doc["final_words"])
        history = SimHistory.from_payload(doc["history"])
        if history.intervals and history.intervals[-1].step >= total_steps:
            raise SnapshotError(
                "golden-run boundary at or past the run's last step"
            )
        return cls(total_steps, final_words, history)

    def to_bytes(self) -> bytes:
        return encode_payload(self.to_payload())

    @classmethod
    def from_bytes(cls, blob: bytes) -> "GoldenRun":
        return cls.from_payload(decode_payload(blob))


def run_golden(spec: TrialSpec) -> GoldenRun:
    """Execute the error-free pass once, recording every boundary."""
    golden = _MechanismPass(spec, *_compiled(spec))
    recorder = SnapshotRecorder(golden.mech, golden.initial_arch)
    golden.run_to_end(lambda: golden.record_boundary(recorder))
    return GoldenRun(
        total_steps=golden.steps,
        final_words=golden.memory.snapshot(),
        history=recorder.history(),
    )


def _golden_for(spec: TrialSpec, store: Optional[SnapshotStore]) -> GoldenRun:
    """Layered golden-run resolution: memo → snapshot store → execute.

    A corrupt stored blob is quarantined and recomputed (the result
    cache's contract); store writes are atomic and idempotent, so
    concurrent workers racing on one key are harmless.
    """
    key = golden_key(spec)
    hit = _GOLDEN_MEMO.get(key)
    if hit is not None:
        return hit
    if store is not None:
        blob = store.load(key)
        if blob is not None:
            try:
                run = GoldenRun.from_bytes(blob)
            except SnapshotError:
                store.quarantine(key)
            else:
                _memo_put(_GOLDEN_MEMO, key, run)
                return run
    run = run_golden(spec)
    if store is not None:
        store.save(key, run.to_bytes())
    _memo_put(_GOLDEN_MEMO, key, run)
    return run


def fork(
    spec: TrialSpec, history: SimHistory, boundary: int, n: int = 1
) -> List["_MechanismPass"]:
    """``n`` independent passes resumed from one recorded boundary.

    Each fork gets its own memory image, checkpoint store, directory,
    handler and interpreters (no shared mutable state between forks),
    but programs and Slices come from the shared deterministic compile
    — forking is O(state size), never O(simulated work).
    """
    check_positive("n", n)
    compiled = _compiled(spec)
    forks = []
    for _ in range(n):
        child = _MechanismPass(spec, *compiled)
        child.restore_snapshot(history, boundary)
        forks.append(child)
    return forks


def run_trial(
    spec: TrialSpec,
    tracer: Optional[Tracer] = None,
    snapshots: bool = False,
    snapshot_store: Optional[SnapshotStore] = None,
) -> TrialResult:
    """Execute one fault-injection trial; see the module doc for shape.

    The golden pass always runs as :func:`run_golden`.  ``snapshots=True``
    switches to the forked execution plan: the golden pass for this
    recipe runs (at most) once — resolved through the in-process memo
    and optional ``snapshot_store`` — and the faulty pass *forks* from
    the newest boundary at or before the injection step instead of
    replaying from step zero.  The flag is an execution-plan knob:
    results are bit-identical either way (pinned by the fork-equivalence
    suite), so it never reaches the trial cache key.
    """
    golden = _golden_for(spec, snapshot_store) if snapshots else run_golden(spec)
    total_steps = golden.total_steps
    if total_steps < 2:
        raise ValueError(
            f"workload {spec.workload!r} too short to inject into "
            f"({total_steps} steps) — lower iters_per_step"
        )

    spi = spec.steps_per_interval
    rng = DeterministicRng(spec.seed, "inject")
    injection_step = rng.randint(1, total_steps - 1)
    if snapshots:
        # Fork from the newest boundary at or before the injection: the
        # prefix up to there is bit-identical by determinism, so only
        # the tail from the fork point is ever re-executed.
        faulty = fork(spec, golden.history, injection_step // spi)[0]
    else:
        faulty = _MechanismPass(spec, *_compiled(spec))
    # The flip lands strictly inside its interval (mid-step), so the
    # occurrence never coincides with a checkpoint establishment — the
    # boundary tie-break is pinned by dedicated unit tests instead.
    occurred = (injection_step + 0.5) / spi
    model = ErrorModel(spec.detection_latency_fraction)
    detected = model.occurrence(occurred, 1.0).detected_ns
    detection_step = int(math.ceil(detected * spi - 1e-9))
    detection_step = max(injection_step + 1, min(total_steps, detection_step))
    # Like the simulator, detection clamps to the end of execution.
    detected = min(detected, total_steps / spi)
    occurrence = ErrorOccurrence(occurred, detected)

    tracer = tracer if (tracer is not None and tracer.enabled) else None
    injection: Optional[Injection] = None
    while not faulty.all_done:
        if faulty.steps == injection_step:
            injection = faulty.inject(rng, spec.target)
            if tracer is not None:
                tracer.emit(FaultInjected(
                    ts_ns=occurred, core=injection.core,
                    target=injection.kind, address=injection.address,
                    bit=injection.bit,
                ))
        faulty.step()
        if injection is not None and faulty.steps == detection_step:
            break
        if faulty.at_boundary() and not faulty.all_done:
            faulty.checkpoint()
    assert injection is not None  # injection_step < total_steps

    # -- detection → safe-checkpoint selection → rollback ------------------
    checkpoint_times = [c.useful_ns for c in faulty.mech.store.checkpoints]
    choice = choose_safe_checkpoint(occurrence, checkpoint_times)
    safe = choice.checkpoint_index

    def _result(
        outcome: str,
        restored: int = 0,
        recomputed: int = 0,
        checked: int = 0,
        count: int = 0,
        sample: Sequence[Divergence] = (),
        detail: str = "",
    ) -> TrialResult:
        return TrialResult(
            spec=spec,
            outcome=outcome,
            injection=injection,
            occurred=occurred,
            detected=detected,
            injection_step=injection_step,
            detection_step=detection_step,
            steps=total_steps,
            checkpoints=len(checkpoint_times),
            safe_checkpoint=safe,
            skipped_corrupted=choice.skipped_corrupted,
            restored_records=restored,
            recomputed_values=recomputed,
            ecc_lookup_hits=faulty.mech.ecc_lookup_hits,
            addresses_checked=checked,
            divergence_count=count,
            divergences=tuple(sample),
            detail=detail,
        )

    try:
        logs = faulty.mech.rollback(safe, _RESTORES[spec.defect])
    except ValueError as exc:
        return _result("unrecoverable", detail=str(exc))
    defect_note = _defect_note(spec.defect, logs)
    restored = sum(len(log.records) for log in logs)
    recomputed = sum(len(log.omitted) for log in logs)
    expected = golden.history.memory_at(safe + 1)
    checked, count, sample = _diff_memory(
        expected, faulty.memory, "rollback", safe
    )

    # -- resume from the recovery line and re-verify at program end --------
    faulty.restore_arch(safe)
    faulty.resume_to_end()
    final_checked, final_count, final_sample = _diff_memory(
        golden.final_words, faulty.memory, "final", -1
    )
    checked += final_checked
    count += final_count
    sample = (sample + final_sample)[:MAX_REPORTED_DIVERGENCES]

    if tracer is not None:
        if count == 0:
            tracer.emit(RecoveryVerified(
                ts_ns=detected, core=MACHINE,
                safe_checkpoint=safe, addresses_checked=checked,
            ))
        else:
            for div in sample:
                tracer.emit(RecoveryDiverged(
                    ts_ns=detected, core=MACHINE, address=div.address,
                    interval=div.interval, expected=div.expected,
                    actual=div.actual,
                ))

    outcome = "recovered-exact" if count == 0 else "diverged"
    return _result(
        outcome, restored, recomputed, checked, count, sample, defect_note
    )
