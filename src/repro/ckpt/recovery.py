"""Recovery: rollback planning, costing, and functional restore.

Rolling back to a safe checkpoint applies interval logs newest-first
(each log's records restore the old values of its interval's first
modifications; the oldest applied log leaves memory at the safe
checkpoint's state).  Under ACR, omitted records are *recomputed*: the
recovery handler executes the recorded Slice with the buffered operand
snapshot and writes the value back to memory, re-establishing a consistent
recovery line (paper §III-B).

Costing (paper Eq. 3):

* ``o_roll-back`` — reading the retained log from memory and writing the
  old values back, plus restoring architectural state;
* ``o_rcmp``      — Slice execution (serial dependent chains on each
  participant core, parallel across cores) plus the write-back of each
  recomputed value.

``o_waste`` is wall-clock time lost since the safe checkpoint and is
computed by the simulator, which owns the clocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.arch.config import MachineConfig
from repro.arch.memctrl import MemorySystem
from repro.ckpt.log import LOG_RECORD_BYTES, VALUE_BYTES, IntervalLog
from repro.energy.accounting import EnergyLedger
from repro.energy.model import EnergyModel
from repro.isa.interpreter import MemoryImage
from repro.obs.events import SliceRecompute
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer

__all__ = ["RecoveryCosts", "RecoveryEngine"]


@dataclass(frozen=True, slots=True)
class RecoveryCosts:
    """Cost breakdown of one recovery (waste excluded — see module doc)."""

    rollback_ns: float
    recompute_ns: float
    restored_records: int
    recomputed_values: int
    recompute_instructions: int
    rollback_bytes: int
    writeback_bytes: int

    @property
    def total_ns(self) -> float:
        """Rollback plus recomputation time."""
        return self.rollback_ns + self.recompute_ns


class RecoveryEngine:
    """Computes recovery costs and performs functional restores."""

    def __init__(
        self,
        config: MachineConfig,
        memsys: MemorySystem,
        energy: EnergyModel,
    ) -> None:
        self.config = config
        self.memsys = memsys
        self.energy = energy

    # -- costing ---------------------------------------------------------------
    def recovery_costs(
        self,
        logs: Sequence[IntervalLog],
        participants: Sequence[int],
        ledger: EnergyLedger,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        ts_ns: float = 0.0,
    ) -> RecoveryCosts:
        """Cost of restoring via ``logs`` (newest-first) on ``participants``.

        Only records belonging to participant cores are restored — under
        coordinated local checkpointing, non-communicating cores do not
        roll back.  Energy is accumulated into ``ledger`` under ``rec.*``
        buckets.  When observability is attached, every omitted value's
        regeneration emits a :class:`SliceRecompute` event (stamped at
        ``ts_ns``, the recovery's wall time) and feeds the slice-length /
        recompute-latency histograms.
        """
        cfg = self.config
        # Normalize once at entry: a caller passing duplicate core ids
        # (e.g. a communication group assembled from per-access lists)
        # must not inflate per-core tallies — each participant core
        # restores its log partition and architectural state exactly once.
        members = frozenset(participants)
        participants = sorted(members)

        # --- o_roll-back: log read + old-value write-back + arch restore.
        read_bytes_per_core: Dict[int, int] = {}
        write_bytes_per_core: Dict[int, int] = {}
        restored = 0
        for log in logs:
            for core, n in log.records_per_core().items():
                if core not in members:
                    continue
                read_bytes_per_core[core] = (
                    read_bytes_per_core.get(core, 0) + n * LOG_RECORD_BYTES
                )
                write_bytes_per_core[core] = (
                    write_bytes_per_core.get(core, 0) + n * VALUE_BYTES
                )
                restored += n
        arch_bytes = {c: cfg.arch_state_bytes for c in participants}
        rollback_ns = (
            self.memsys.bulk_transfer_time_ns(read_bytes_per_core)
            + self.memsys.bulk_transfer_time_ns(write_bytes_per_core)
            + self.memsys.bulk_transfer_time_ns(arch_bytes)
        )
        rollback_bytes = sum(read_bytes_per_core.values())
        write_bytes = sum(write_bytes_per_core.values())
        ledger.add(
            "rec.restore",
            self.energy.dram_transfer_pj(rollback_bytes + write_bytes)
            + self.energy.dram_transfer_pj(sum(arch_bytes.values())),
        )

        # --- o_rcmp: Slice execution per core (parallel across cores,
        #     serial within a core) + recomputed-value write-back.
        instrs_per_core: Dict[int, int] = {}
        values_per_core: Dict[int, int] = {}
        recomputed = 0
        recompute_instrs = 0
        cycle = cfg.cycle_ns
        observe = tracer is not None or metrics is not None
        for log in logs:
            for rec in log.omitted:
                if rec.core not in members:
                    continue
                length = rec.entry.slice_.length
                instrs_per_core[rec.core] = (
                    instrs_per_core.get(rec.core, 0) + length
                )
                values_per_core[rec.core] = values_per_core.get(rec.core, 0) + 1
                recomputed += 1
                recompute_instrs += length
                if observe:
                    slice_ns = length * cycle + cfg.addrmap_access_ns
                    if tracer is not None:
                        tracer.emit(SliceRecompute(
                            ts_ns=ts_ns, core=rec.core,
                            slice_id=rec.entry.slice_.site, ns=slice_ns,
                        ))
                    if metrics is not None:
                        metrics.histogram(
                            "recovery.slice_length"
                        ).observe(length)
                        metrics.histogram(
                            "recovery.slice_recompute_ns"
                        ).observe(slice_ns)
        exec_ns = max(
            (
                instrs * cycle + values_per_core[core] * cfg.addrmap_access_ns
                for core, instrs in instrs_per_core.items()
            ),
            default=0.0,
        )
        wb_per_core = {
            core: n * VALUE_BYTES for core, n in values_per_core.items()
        }
        writeback_bytes = sum(wb_per_core.values())
        wb_ns = self.memsys.bulk_transfer_time_ns(wb_per_core)
        if cfg.scratchpad_recompute:
            # Scratchpad mode (paper §II-B): slice execution overlaps the
            # log-restore memory transfers; only the portion exceeding the
            # rollback time and the write-back remain on the critical path.
            recompute_ns = max(0.0, exec_ns - rollback_ns) + wb_ns
        else:
            recompute_ns = exec_ns + wb_ns
        ledger.add(
            "rec.recompute",
            recompute_instrs * self.energy.alu_op_pj
            + recomputed * self.energy.addrmap_access_pj
            + recomputed * self.energy.handler_op_pj
            + (
                recompute_instrs * self.energy.scratchpad_access_pj
                if cfg.scratchpad_recompute
                else 0.0
            )
            + self.energy.dram_transfer_pj(writeback_bytes),
        )

        return RecoveryCosts(
            rollback_ns=rollback_ns,
            recompute_ns=recompute_ns,
            restored_records=restored,
            recomputed_values=recomputed,
            recompute_instructions=recompute_instrs,
            rollback_bytes=rollback_bytes,
            writeback_bytes=writeback_bytes,
        )

    # -- functional restore ----------------------------------------------------
    @staticmethod
    def apply_rollback(
        memory: MemoryImage, logs: Sequence[IntervalLog]
    ) -> Dict[int, int]:
        """Restore ``memory`` to the safe checkpoint via ``logs``.

        Logs must be newest-first; each is applied in turn, so the oldest
        log's (i.e. the safe checkpoint's) values win.  Omitted records are
        *recomputed* from their Slice + operand snapshot — never read from
        the ground-truth field.  Returns {address: restored value}.
        """
        restored: Dict[int, int] = {}
        for log in logs:
            for rec in log.records:
                memory.write(rec.address, rec.old_value)
                restored[rec.address] = rec.old_value
            for om in log.omitted:
                value = om.entry.slice_.execute(om.entry.operands)
                memory.write(om.address, value)
                restored[om.address] = value
        return restored

    @staticmethod
    def verify_recomputation(logs: Iterable[IntervalLog]) -> List[int]:
        """Recompute every omitted value and compare with ground truth.

        Returns the addresses that mismatch (empty == all correct); used
        by tests and the self-check example.
        """
        bad: List[int] = []
        for log in logs:
            for om in log.omitted:
                if om.entry.slice_.execute(om.entry.operands) != (
                    om.ground_truth_old_value
                ):
                    bad.append(om.address)
        return bad
