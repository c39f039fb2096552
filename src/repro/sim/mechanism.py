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

from itertools import chain, islice
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.acr.handlers import AcrCheckpointHandler, AssocOutcome
from repro.arch.buffers import AddrMapEntry, make_generation
from repro.arch.config import MachineConfig
from repro.arch.directory import Directory
from repro.ckpt.checkpoint import (
    RETAINED_CHECKPOINTS, Checkpoint, CheckpointStore,
)
from repro.ckpt.log import (
    LOG_RECORD_BYTES, IntervalLog, LogRecord, OmittedRecord,
)
from repro.ckpt.recovery import RecoveryEngine
from repro.compiler.slices import SliceTable
from repro.isa.interpreter import MemoryImage, StoreEvent
from repro.sim.snapshot import IntervalRecord, SimHistory, SnapshotError

__all__ = ["ASSOCIATED", "LOGGED", "Mechanism", "SnapshotRecorder"]

#: :meth:`Mechanism.on_store` flag: the old value was written to the log.
LOGGED = 1
#: :meth:`Mechanism.on_store` flag: the store's ASSOC-ADDR was recorded.
ASSOCIATED = 2

_RECORDED = AssocOutcome.RECORDED


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
    def restore(self, history: SimHistory, boundary: int) -> None:
        """Install ``history``'s state at ``boundary`` into this (fresh)
        mechanism.

        The memory image is the fold of the first ``boundary`` deltas;
        only the two retained logs and the two retained AddrMap
        generations are rebuilt, and every older checkpoint keeps its
        metadata with an empty log, as pruning left it.  The open log,
        the open generation and the log bits are empty at a boundary.
        The mechanism must have been built from the recipe the history
        was recorded under: Slices are *rehydrated* from this
        mechanism's slice tables, never deserialized.  Raises
        :class:`SnapshotError` when the history does not fit.
        """
        if history.memory_seed != self.memory.seed:
            raise SnapshotError(
                f"snapshot memory seed {history.memory_seed} != pass seed "
                f"{self.memory.seed}"
            )
        intervals = history.intervals
        if not 0 <= boundary <= len(intervals):
            raise SnapshotError(
                f"boundary {boundary} outside the snapshot's "
                f"0..{len(intervals)}"
            )
        handler = self.handler
        n_cores = self.config.num_cores
        recorded = [r.handler is not None for r in intervals[:1]]
        if handler is None and (history.entries or any(recorded)):
            raise SnapshotError(
                "snapshot carries ACR handler state but this "
                "configuration has no handler"
            )
        if handler is not None and not all(recorded):
            raise SnapshotError(
                "snapshot has no AddrMap state for an ACR configuration"
            )
        built: Dict[int, AddrMapEntry] = {}

        def entry_at(idx: int) -> AddrMapEntry:
            entry = built.get(idx)
            if entry is None:
                core, site, address, operands = history.entries[idx]
                sl = (
                    handler.slice_for_site(core, site)
                    if 0 <= core < n_cores else None
                )
                if sl is None:
                    raise SnapshotError(
                        f"snapshot references unknown slice site {site} "
                        f"on core {core}"
                    )
                entry = built[idx] = AddrMapEntry(address, sl, tuple(operands))
            return entry

        window = max(0, boundary - RETAINED_CHECKPOINTS)
        checkpoints = []
        for k, record in enumerate(intervals[:boundary]):
            log = IntervalLog(k)
            if k >= window:
                log.records.extend(
                    LogRecord(a, v, c) for a, v, c in record.records
                )
                log.omitted.extend(
                    OmittedRecord(a, entry_at(e), c, t)
                    for a, e, c, t in record.omitted
                )
            useful_ns, wall_ns, arch_bytes, participants = record.checkpoint
            checkpoints.append(Checkpoint(
                k, useful_ns, wall_ns, arch_bytes,
                None if participants is None else frozenset(participants),
                log, len(record.records) * LOG_RECORD_BYTES,
                len(record.omitted) * LOG_RECORD_BYTES,
            ))
        self.memory.restore(history.memory_at(boundary))
        self.store.checkpoints = checkpoints
        self.store.current_log = IntervalLog(boundary)
        self.directory.clear_log_bits()
        if handler is None or not boundary:
            return
        last = intervals[boundary - 1]
        if len(last.cores) != n_cores:
            raise SnapshotError(
                f"snapshot AddrMap state covers {len(last.cores)} "
                f"cores, this pass has {n_cores}"
            )
        retained = intervals[window:boundary]
        for core, (addrmap, buffer, row) in enumerate(zip(
            handler.addrmaps, handler.operand_buffers, last.cores
        )):
            addrmap.restore_generations(make_generation([], set()), [
                make_generation(
                    [(a, entry_at(e)) for a, e in r.generations[core][0]],
                    set(r.generations[core][1]),
                )
                for r in retained
            ])
            (addrmap.records, addrmap.rejections, buffer.words,
             buffer.peak_words, buffer.rejections, _) = row
        handler.restore_generation_words([row[5] for row in last.cores])
        (handler.assoc_executed, handler.omissions,
         handler.omission_lookups) = last.handler
        handler.ecc_lookup_hits = last.ecc_lookup_hits


class SnapshotRecorder:
    """Records a mechanism's boundaries as a :class:`SimHistory`.

    :meth:`record`, called right after each :meth:`Mechanism.establish`,
    appends one :class:`IntervalRecord` built from the interval just
    closed: its log rows (copied — pruning clears the log's lists in
    place two boundaries later), its memory delta (or the whole image,
    once the deltas since the last one would outgrow it), the AddrMap
    generations it committed, and the counters.  Recording starts at
    boundary 0, before any store.
    """

    def __init__(self, mech: Mechanism,
                 initial_arch: Sequence[Sequence[Any]]) -> None:
        self.mech = mech
        self.initial_arch = initial_arch
        self.entries: List[Tuple[int, int, int, Tuple[int, ...]]] = []
        self.intervals: List[IntervalRecord] = []
        self._entry_index: Dict[int, int] = {}
        #: Every indexed entry, held so no other object reuses its id.
        self._indexed: List[AddrMapEntry] = []
        self._image_len = len(mech.memory)
        #: Delta rows recorded since the last whole image.
        self._since_whole = 0

    def _eid(self, core: int, entry: AddrMapEntry) -> int:
        got = self._entry_index.get(id(entry))
        if got is None:
            got = self._entry_index[id(entry)] = len(self.entries)
            self._indexed.append(entry)
            self.entries.append(
                (core, entry.slice_.site, entry.address, entry.operands)
            )
        return got

    def record(self, arch: Sequence[Sequence[Any]], step: int,
               n_instructions: int) -> None:
        """Record the interval the mechanism has just closed, with the
        caller's architectural rows and step grid at the boundary."""
        mech = self.mech
        eid = self._eid
        ckpt = mech.store.checkpoints[-1]
        log = ckpt.log
        words = mech.memory.words_map()
        # Every write of a mechanism pass reaches the log, once per word,
        # so the log's addresses are the words the interval wrote.
        written = len(log.records) + len(log.omitted)
        whole = self._since_whole + written > len(words)
        if whole:
            delta = dict(words)
            self._since_whole = 0
        else:
            # The words new to the image are the dict's tail; they go
            # last, in insertion order.
            fresh = list(islice(reversed(words.items()),
                                len(words) - self._image_len))
            fresh.reverse()
            new = dict(fresh)
            delta = {a: words[a] for a in chain(
                [r.address for r in log.records],
                [o.address for o in log.omitted],
            ) if a not in new}
            delta.update(new)
            self._since_whole += written
        self._image_len = len(words)
        handler = mech.handler
        counters = cores = generations = None
        if handler is not None:
            counters = (handler.assoc_executed, handler.omissions,
                        handler.omission_lookups)
            cores, generations = [], []
            for core, (addrmap, buffer, gen_words) in enumerate(zip(
                handler.addrmaps, handler.operand_buffers,
                handler.generation_words(),
            )):
                gen = addrmap.internal_state()[1][-1]
                generations.append((
                    [(a, eid(core, e)) for a, e in gen.entries.items()],
                    sorted(gen.tombstones),
                ))
                cores.append((addrmap.records, addrmap.rejections,
                              buffer.words, buffer.peak_words,
                              buffer.rejections, tuple(gen_words)))
        participants = ckpt.participants
        self.intervals.append(IntervalRecord(
            records=[(r.address, r.old_value, r.core) for r in log.records],
            omitted=[(o.address, eid(o.core, o.entry), o.core,
                      o.ground_truth_old_value) for o in log.omitted],
            delta=delta,
            whole=whole,
            checkpoint=(ckpt.useful_ns, ckpt.wall_ns, ckpt.arch_bytes,
                        None if participants is None
                        else sorted(participants)),
            arch=arch,
            step=step,
            n_instructions=n_instructions,
            ecc_lookup_hits=mech.ecc_lookup_hits,
            handler=counters,
            cores=cores,
            generations=generations,
        ))

    def history(self) -> SimHistory:
        """Everything recorded so far."""
        return SimHistory(self.mech.memory.seed, self.initial_arch,
                          self.entries, self.intervals)
