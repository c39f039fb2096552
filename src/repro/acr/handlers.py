"""ACR checkpoint and recovery handlers (paper Fig. 4).

The checkpoint handler sits between the cores and the memory controller:

* every covered store executes ``ASSOC-ADDR``: the handler snapshots the
  Slice's input operands from the live register file into the per-core
  AddrMap (subject to AddrMap and operand-buffer capacity);
* every plain store *invalidates* (tombstones) the address — its value is
  no longer the one the recorded Slice reproduces;
* at a first-modification the memory controller asks :meth:`may_omit`;
  a committed association answers "recomputable" and the log write is
  skipped (the controller still sets the line's log bit either way).
  The lookup checks ECC over the operand snapshot: an entry damaged by
  :meth:`AddrMap.swap_committed` is refused and masked, and the store
  logs normally.

The recovery handler regenerates omitted values via the recomputation
engine and writes them back, in coordination with the log-based restore.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional, Sequence

from repro.arch.buffers import AddrMap, AddrMapEntry, OperandBuffer
from repro.arch.config import MachineConfig
from repro.acr.recompute import RecomputationEngine
from repro.ckpt.log import IntervalLog
from repro.compiler.slices import Slice, SliceTable
from repro.isa.interpreter import MemoryImage
from repro.obs.events import AddrMapEvict, AddrMapHit, AddrMapInsert
from repro.obs.tracer import Tracer

__all__ = ["AssocOutcome", "AcrCheckpointHandler", "AcrRecoveryHandler"]


class AssocOutcome(enum.Enum):
    """What happened when a store hit the checkpoint handler."""

    #: The store carried ``ASSOC-ADDR`` and the association was recorded.
    RECORDED = "recorded"
    #: The store carried ``ASSOC-ADDR`` but a capacity limit rejected it.
    REJECTED = "rejected"
    #: A plain store — any prior association for the address was masked.
    INVALIDATED = "invalidated"


class AcrCheckpointHandler:
    """Per-machine checkpoint handler with per-core AddrMaps."""

    def __init__(
        self,
        config: MachineConfig,
        slice_tables: Sequence[SliceTable],
    ) -> None:
        if len(slice_tables) != config.num_cores:
            raise ValueError(
                f"need one slice table per core: got {len(slice_tables)} "
                f"for {config.num_cores} cores"
            )
        self.config = config
        self.addrmaps: List[AddrMap] = [
            AddrMap(config.addrmap_capacity) for _ in range(config.num_cores)
        ]
        self.operand_buffers: List[OperandBuffer] = [
            OperandBuffer(config.operand_buffer_capacity)
            for _ in range(config.num_cores)
        ]
        # site id -> Slice, per core (sites are per-program, programs per core).
        self._site_slices: List[Dict[int, Slice]] = [
            {site: table.get(site) for site in table.sites}
            for table in slice_tables
        ]
        # Operand words held by each generation (open + 2 committed), per
        # core, so the operand buffer can be released on generation expiry.
        self._gen_words: List[List[int]] = [[0] for _ in range(config.num_cores)]
        self.assoc_executed = 0
        self.omissions = 0
        self.omission_lookups = 0
        self.ecc_lookup_hits = 0
        # Observability (attached by the simulator; None = fast path).
        self._tracer: Optional[Tracer] = None
        self._clock: Optional[Callable[[int], float]] = None

    # -- observability --------------------------------------------------------
    def attach_observability(
        self,
        tracer: Optional[Tracer],
        clock: Callable[[int], float],
    ) -> None:
        """Wire the handler into the run's event sink.

        ``clock`` maps a core id to its current simulated wall time (the
        handler has no clock of its own).  A disabled tracer is dropped
        here so the per-store guards stay a single ``is not None`` test.
        """
        self._tracer = tracer if (tracer is not None and tracer.enabled) else None
        self._clock = clock

    def slice_for_site(self, core: int, site: int) -> Optional[Slice]:
        """The embedded slice covering ``site`` on ``core`` (if any)."""
        return self._site_slices[core].get(site)

    def site_slice_map(self, core: int) -> Dict[int, Slice]:
        """The full site -> Slice map of ``core`` (read-only use)."""
        return self._site_slices[core]

    # -- snapshot support -----------------------------------------------------
    def generation_words(self) -> List[List[int]]:
        """Per-core operand-word ledgers, one entry per live generation
        (open last).  Returned live — copy before serializing."""
        return self._gen_words

    def restore_generation_words(self, words: Sequence[Sequence[int]]) -> None:
        """Replace the generation word ledgers (snapshot restore)."""
        if len(words) != self.config.num_cores:
            raise ValueError(
                f"need one word ledger per core: got {len(words)} "
                f"for {self.config.num_cores} cores"
            )
        self._gen_words = [list(w) for w in words]

    # -- store-time control (paper Fig. 4a) ----------------------------------
    def on_store(
        self, core: int, site: int, address: int, regs: Sequence[int]
    ) -> AssocOutcome:
        """Handle one dynamic store on ``core``.

        ``regs`` is the register file at the store (operand snapshot
        source).
        """
        sl = self._site_slices[core].get(site)
        if sl is None:
            self.addrmaps[core].invalidate(address)
            self._observe_evict(core, address, "invalidated")
            return AssocOutcome.INVALIDATED

        n_ops = len(sl.frontier)
        replaced = self.addrmaps[core].open_entry(address)
        if replaced is not None:
            # Re-association: the old snapshot's operand words free up.
            freed = len(replaced.slice_.frontier)
            self.operand_buffers[core].release(freed)
            self._gen_words[core][-1] -= freed
            self._observe_evict(core, address, "replaced")
        if not self.operand_buffers[core].try_reserve(n_ops):
            self.addrmaps[core].invalidate(address)
            self._observe_evict(core, address, "rejected")
            return AssocOutcome.REJECTED
        operands = tuple(regs[r] for r in sl.frontier)
        entry = AddrMapEntry(address, sl, operands)
        if not self.addrmaps[core].record(entry):
            self.operand_buffers[core].release(n_ops)
            self.addrmaps[core].invalidate(address)
            self._observe_evict(core, address, "rejected")
            return AssocOutcome.REJECTED
        self._gen_words[core][-1] += n_ops
        self.assoc_executed += 1
        if self._tracer is not None:
            self._tracer.emit(AddrMapInsert(
                ts_ns=self._clock(core), core=core,
                address=address, operands=n_ops,
            ))
        return AssocOutcome.RECORDED

    def _observe_evict(self, core: int, address: int, reason: str) -> None:
        """Emit one AddrMap eviction (no-op when unobserved)."""
        if self._tracer is not None:
            self._tracer.emit(AddrMapEvict(
                ts_ns=self._clock(core), core=core,
                address=address, reason=reason,
            ))

    def may_omit(self, core: int, address: int) -> Optional[AddrMapEntry]:
        """Memory-controller query at a first-modification.

        Returns the association proving the overwritten value (the one
        live at the last checkpoint) recomputable, or ``None`` when it
        must be logged normally.
        """
        self.omission_lookups += 1
        addrmap = self.addrmaps[core]
        entry = addrmap.committed_lookup(address)
        if entry is not None:
            if addrmap.damaged and id(entry) in addrmap.damaged:
                # ECC over the operand snapshot detects the flipped word:
                # refuse (and conservatively mask) the association, so
                # recovery never executes a corrupt Slice.  Engines that
                # inline this lookup never meet a damaged entry: fault
                # injection runs on the classic interpreter only.
                self.ecc_lookup_hits += 1
                addrmap.invalidate(address)
                return None
            self.omissions += 1
            if self._tracer is not None:
                self._tracer.emit(AddrMapHit(
                    ts_ns=self._clock(core), core=core, address=address,
                ))
        return entry

    # -- boundary control ---------------------------------------------------------
    def on_checkpoint(self) -> None:
        """A checkpoint was established: rotate AddrMap generations.

        Commits every core's open generation and releases the operand
        buffer words of the generation that ages out of retention.
        """
        for addrmap, gens, buffer in zip(
            self.addrmaps, self._gen_words, self.operand_buffers
        ):
            addrmap.commit_generation()
            gens.append(0)
            # open + 2 committed generations stay live.
            while len(gens) > 3:
                expired = gens.pop(0)
                if expired:
                    buffer.release(expired)


class AcrRecoveryHandler:
    """Regenerates omitted values during recovery (paper Fig. 4b)."""

    def __init__(self) -> None:
        self.engine = RecomputationEngine()

    def recompute_omitted(
        self, logs: Sequence[IntervalLog], memory: Optional[MemoryImage] = None
    ) -> Dict[int, int]:
        """Recompute every omitted value in ``logs`` (newest-first).

        Writes the values back to ``memory`` when given (the consistent-
        recovery-line write-back); returns {address: recomputed value} with
        the *oldest* log winning for addresses omitted in several
        intervals, matching the restore order of
        :meth:`repro.ckpt.recovery.RecoveryEngine.apply_rollback`.
        """
        values: Dict[int, int] = {}
        for log in logs:
            for om in log.omitted:
                address, value = self.engine.recompute_entry(om.entry)
                values[address] = value
                if memory is not None:
                    memory.write(address, value)
        return values

    @property
    def stats(self):
        """Recomputation accounting."""
        return self.engine.stats
