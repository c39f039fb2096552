"""The checkpointing mechanism: the first-write protocol, boundaries,
rollback and snapshots, written once.

A :class:`Mechanism` owns the functional state of log-based incremental
checkpointing with ACR (paper Fig. 4a/4b):

* the memory image and the directory's per-word log bits;
* the :class:`~repro.ckpt.checkpoint.CheckpointStore` (retained
  checkpoints and the open interval log);
* the :class:`~repro.acr.handlers.AcrCheckpointHandler` (per-core
  AddrMaps and operand buffers) under ACR, ``None`` under BER.

It knows nothing of time or energy: the simulator layers caches,
stalls, energy and observability on top of it, and the fault-injection
harness drives it on a step grid and diffs its memory.  The harness
calls :meth:`on_store` per store; the simulator's timed steppers test
the log bit inline and call :meth:`first_write` and the handler's
``on_store`` themselves, so a run's log observer and handler tracer see
every first write either way.  The vector engine's replay loop is the
one inlined copy of the whole protocol, over this object's state, for
unobserved runs (DESIGN §4.1).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.acr.handlers import AcrCheckpointHandler, AssocOutcome
from repro.arch.buffers import AddrMapEntry, make_generation
from repro.arch.config import MachineConfig
from repro.arch.directory import Directory
from repro.ckpt.checkpoint import (
    RETAINED_CHECKPOINTS, Checkpoint, CheckpointStore,
)
from repro.ckpt.log import IntervalLog, LogRecord, OmittedRecord
from repro.ckpt.recovery import RecoveryEngine
from repro.compiler.slices import SliceTable
from repro.isa.interpreter import MemoryImage, StoreEvent
from repro.sim.snapshot import SimSnapshot, SnapshotError

__all__ = ["ASSOCIATED", "LOGGED", "Mechanism"]

#: :meth:`Mechanism.on_store` flag: the old value was written to the log.
LOGGED = 1
#: :meth:`Mechanism.on_store` flag: the store's ASSOC-ADDR was recorded.
ASSOCIATED = 2

_RECORDED = AssocOutcome.RECORDED

#: Snapshotted attributes of each operand buffer and of the handler.
_BUFFER_FIELDS = ("words", "peak_words", "rejections")
_HANDLER_COUNTERS = ("assoc_executed", "omissions", "omission_lookups")


class Mechanism:
    """Memory, log bits, checkpoint store and ACR handler of one run.

    ``slice_tables`` (one per core) selects ACR; ``None`` is BER.  The
    ``directory`` defaults to a fresh one; the simulator passes its
    machine's.  ``log_observer(record, omitted)`` is called for every
    first write once it became a log record or an omission.
    """

    def __init__(
        self,
        config: MachineConfig,
        memory: MemoryImage,
        slice_tables: Optional[Sequence[SliceTable]] = None,
        directory: Optional[Directory] = None,
        log_observer: Optional[Callable[[Any, bool], None]] = None,
    ) -> None:
        self.config = config
        self.memory = memory
        self.directory = (
            directory if directory is not None else Directory(config.num_cores)
        )
        self.store = CheckpointStore(config.arch_state_bytes, config.num_cores)
        self._log_observer = log_observer
        self.handler: Optional[AcrCheckpointHandler] = (
            AcrCheckpointHandler(config, slice_tables)
            if slice_tables is not None
            else None
        )

    # -- the first-write protocol (Fig. 4a) ----------------------------------
    def on_store(self, ev: StoreEvent) -> int:
        """One dynamic store, after its memory write.

        The directory's log bit marks the interval's first write to the
        word, which :meth:`first_write` handles.  Every store then
        reaches the handler: a covered store records its operand
        snapshot (ASSOC-ADDR), a plain one masks the address.  Returns
        :data:`LOGGED` and :data:`ASSOCIATED` flags, so a timing model
        can charge the log write and then the ASSOC-ADDR slot.  The
        simulator's timed steppers make the same three steps inline.
        """
        core = ev.thread
        address = ev.address
        charged = 0
        if not self.directory.test_and_set_log(address) and self.first_write(
            core, address, ev.old_value
        ):
            charged = LOGGED
        handler = self.handler
        if (
            handler is not None
            and handler.on_store(core, ev.site, address, ev.regs) is _RECORDED
        ):
            charged |= ASSOCIATED
        return charged

    def first_write(self, core: int, address: int, old: int) -> bool:
        """The interval's first write to ``address``, whose log bit was
        just set: its ``old`` value is omitted when the handler holds a
        committed association for it, and logged otherwise.  Returns
        True when it was logged."""
        handler = self.handler
        entry = None if handler is None else handler.may_omit(core, address)
        log = self.store.current_log
        if entry is not None:
            rec = log.add_omitted(address, entry, core, old)
        else:
            rec = log.add_record(address, old, core)
        if self._log_observer is not None:
            self._log_observer(rec, entry is not None)
        return entry is None

    # -- boundaries ----------------------------------------------------------
    def establish(self, useful_ns: float, wall_ns: float) -> None:
        """Close the interval and establish the next checkpoint: clear
        the log bits and the directory's interval tracking, and commit
        the open AddrMap generation."""
        self.store.establish(useful_ns, wall_ns)
        self.directory.clear_log_bits()
        self.directory.clear_interval_tracking()
        if self.handler is not None:
            self.handler.on_checkpoint()

    # -- recovery (Fig. 4b) --------------------------------------------------
    def rollback(
        self,
        safe_index: int,
        apply: Callable[[MemoryImage, Sequence[IntervalLog]], Any] = (
            RecoveryEngine.apply_rollback
        ),
    ) -> List[IntervalLog]:
        """Restore memory to checkpoint ``safe_index``; return the logs.

        The logs come newest-first, and omitted values are recomputed
        from their Slices.  Raises ``ValueError`` before touching memory
        when a needed log is beyond retention.  ``apply`` performs the
        restore; verifier self-tests pass seeded defects here.
        """
        logs = self.store.logs_to_rollback(safe_index)
        apply(self.memory, logs)
        return logs

    @property
    def ecc_lookup_hits(self) -> int:
        """Damaged AddrMap entries refused at lookup (0 under BER)."""
        handler = self.handler
        return handler.ecc_lookup_hits if handler is not None else 0

    # -- snapshots -----------------------------------------------------------
    def snapshot(self, **state: Any) -> SimSnapshot:
        """Capture the mechanism's state as pure data (entry table and
        identity graph: see :mod:`repro.sim.snapshot`).  ``state``
        supplies the caller-owned fields of :class:`SimSnapshot` (step
        grid, architectural state, RNG positions)."""
        entry_index: Dict[int, int] = {}
        entry_rows: List[List[Any]] = []

        def eid(core: int, entry: AddrMapEntry) -> int:
            got = entry_index.get(id(entry))
            if got is None:
                got = len(entry_rows)
                entry_index[id(entry)] = got
                entry_rows.append(
                    [core, entry.slice_.site, entry.address,
                     list(entry.operands)]
                )
            return got

        def log_doc(log: IntervalLog) -> Dict[str, Any]:
            return {
                "interval": log.interval_index,
                "records": [[r.address, r.old_value, r.core]
                            for r in log.records],
                "omitted": [[o.address, eid(o.core, o.entry), o.core,
                             o.ground_truth_old_value]
                            for o in log.omitted],
            }

        handler = self.handler
        addrmaps = operand_buffers = gen_words = handler_counters = None
        if handler is not None:
            def gen_doc(core: int, gen: Any) -> Dict[str, Any]:
                return {
                    "entries": [[a, eid(core, e)]
                                for a, e in gen.entries.items()],
                    "tombstones": sorted(gen.tombstones),
                }

            addrmaps = []
            for core, addrmap in enumerate(handler.addrmaps):
                open_gen, committed = addrmap.internal_state()
                addrmaps.append({
                    "open": gen_doc(core, open_gen),
                    "committed": [gen_doc(core, g) for g in committed],
                    "records": addrmap.records,
                    "rejections": addrmap.rejections,
                })
            operand_buffers = [
                {name: getattr(b, name) for name in _BUFFER_FIELDS}
                for b in handler.operand_buffers
            ]
            gen_words = [list(w) for w in handler.generation_words()]
            handler_counters = {
                name: getattr(handler, name) for name in _HANDLER_COUNTERS
            }
        open_log = log_doc(self.store.current_log)
        checkpoints = [
            dict(vars(c), log=log_doc(c.log), participants=(
                None if c.participants is None else sorted(c.participants)
            ))
            for c in self.store.checkpoints
        ]
        return SimSnapshot(
            memory_seed=self.memory.seed,
            memory_words=[[a, v] for a, v in self.memory.snapshot().items()],
            ecc_lookup_hits=self.ecc_lookup_hits,
            directory_log_bits=sorted(self.directory.log_bit_set()),
            entries=entry_rows,
            open_log=open_log,
            checkpoints=checkpoints,
            addrmaps=addrmaps,
            operand_buffers=operand_buffers,
            gen_words=gen_words,
            handler_counters=handler_counters,
            **state,
        )

    def restore(self, snap: SimSnapshot) -> None:
        """Install ``snap``'s mechanism state into this (fresh) mechanism.

        The mechanism must have been built from the recipe the snapshot
        was captured under: Slices are *rehydrated* from this
        mechanism's slice tables, never deserialized.  Raises
        :class:`SnapshotError` when the snapshot does not fit, including
        when a checkpoint older than the retention window still carries
        log records or omissions (the store clears each log as it leaves
        the window, and never again).
        """
        if snap.memory_seed != self.memory.seed:
            raise SnapshotError(
                f"snapshot memory seed {snap.memory_seed} != pass seed "
                f"{self.memory.seed}"
            )
        handler = self.handler
        n_cores = self.config.num_cores
        if handler is None and (
            snap.addrmaps is not None or snap.entries or snap.ecc_lookup_hits
        ):
            raise SnapshotError(
                "snapshot carries ACR handler state but this "
                "configuration has no handler"
            )
        entries: List[AddrMapEntry] = []
        for core, site, address, operands in snap.entries:
            if not isinstance(core, int) or not 0 <= core < n_cores:
                raise SnapshotError(f"entry references bad core {core!r}")
            sl = handler.slice_for_site(core, site)
            if sl is None:
                raise SnapshotError(
                    f"snapshot references unknown slice site {site} "
                    f"on core {core}"
                )
            entries.append(AddrMapEntry(address, sl, tuple(operands)))

        def entry_at(idx: Any) -> AddrMapEntry:
            if (isinstance(idx, bool) or not isinstance(idx, int)
                    or not 0 <= idx < len(entries)):
                raise SnapshotError(f"bad entry reference {idx!r}")
            return entries[idx]

        def build_log(doc: Dict[str, Any]) -> IntervalLog:
            log = IntervalLog(doc["interval"])
            log.records.extend(
                LogRecord(a, v, c) for a, v, c in doc["records"]
            )
            log.omitted.extend(
                OmittedRecord(a, entry_at(e), c, t)
                for a, e, c, t in doc["omitted"]
            )
            return log

        for doc in snap.checkpoints[:-RETAINED_CHECKPOINTS]:
            if doc["log"]["records"] or doc["log"]["omitted"]:
                raise SnapshotError(
                    f"checkpoint {doc['index']} is beyond the retention "
                    f"window but its log still holds a payload"
                )
        self.memory.restore({a: v for a, v in snap.memory_words})
        self.store.checkpoints = [
            Checkpoint(**dict(d, log=build_log(d["log"]), participants=(
                None if d["participants"] is None
                else frozenset(d["participants"])
            )))
            for d in snap.checkpoints
        ]
        self.store.current_log = build_log(snap.open_log)
        bits = self.directory.log_bit_set()
        bits.clear()
        bits.update(snap.directory_log_bits)
        if handler is None:
            return
        if snap.addrmaps is None:
            raise SnapshotError(
                "snapshot has no AddrMap state for an ACR configuration"
            )
        if len(snap.addrmaps) != n_cores:
            raise SnapshotError(
                f"snapshot AddrMap state covers {len(snap.addrmaps)} "
                f"cores, this pass has {n_cores}"
            )

        def build_gen(doc: Dict[str, Any]) -> Any:
            return make_generation(
                [(a, entry_at(e)) for a, e in doc["entries"]],
                set(doc["tombstones"]),
            )

        for core in range(n_cores):
            doc = snap.addrmaps[core]
            addrmap = handler.addrmaps[core]
            addrmap.restore_generations(
                build_gen(doc["open"]),
                [build_gen(g) for g in doc["committed"]],
            )
            addrmap.records = doc["records"]
            addrmap.rejections = doc["rejections"]
            for name in _BUFFER_FIELDS:
                setattr(handler.operand_buffers[core], name,
                        snap.operand_buffers[core][name])
        handler.restore_generation_words(snap.gen_words)
        for name in _HANDLER_COUNTERS:
            setattr(handler, name, snap.handler_counters[name])
        handler.ecc_lookup_hits = snap.ecc_lookup_hits
