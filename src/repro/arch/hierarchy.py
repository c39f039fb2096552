"""Per-core cache hierarchy: private L1-D and L2 with miss propagation.

The hierarchy turns a data access into a latency and a set of countable
events (L1 hit / L2 hit / memory access / dirty write-backs), which the
simulator charges against the core clock and the energy ledger.  L1-I is
modelled as an always-hitting stream (instruction fetch energy is charged
per instruction by the energy model; its latency is hidden by the in-order
frontend).
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.arch.cache import SetAssociativeCache
from repro.arch.config import MachineConfig

__all__ = ["DataAccess", "CoreCacheHierarchy"]


@dataclass(frozen=True, slots=True)
class DataAccess:
    """Timing/energy-relevant outcome of one data access."""

    latency_ns: float
    l1_hit: bool
    l2_hit: bool
    memory_access: bool
    writebacks: int  # dirty lines pushed to memory by evictions


class CoreCacheHierarchy:
    """Private L1-D + L2 for one core."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.l1d = SetAssociativeCache(config.l1d)
        self.l2 = SetAssociativeCache(config.l2)
        # The live dirty sets (cleared in place, never rebound).
        self._l1_dirty = self.l1d.internal_state()[3]
        self._l2_dirty = self.l2.internal_state()[3]
        self.memory_accesses = 0
        self.writebacks = 0

    def access(self, address: int, is_write: bool) -> DataAccess:
        """Access a byte address; returns latency and event counts."""
        line = address // self.config.line_bytes
        cfg = self.config

        r1 = self.l1d.access(line, is_write)
        writebacks = 0
        if r1.victim_dirty:
            # L1 victim lands in L2 (it may evict there in turn).
            r_wb = self.l2.access(r1.victim_line, True)
            if r_wb.victim_dirty:
                writebacks += 1
        if r1.hit:
            if writebacks:
                self.writebacks += writebacks
            return DataAccess(cfg.l1d.latency_ns, True, False, False, writebacks)

        r2 = self.l2.access(line, False)
        if r2.victim_dirty:
            writebacks += 1
        if r2.hit:
            self.writebacks += writebacks
            return DataAccess(
                cfg.l1d.latency_ns + cfg.l2.latency_ns, False, True, False, writebacks
            )

        self.memory_accesses += 1
        self.writebacks += writebacks
        latency = cfg.l1d.latency_ns + cfg.l2.latency_ns + cfg.mem_latency_ns
        return DataAccess(latency, False, False, True, writebacks)

    def flush_dirty_lines(self) -> int:
        """Checkpoint flush: write every dirty line back to memory.

        Returns the number of lines flushed (both levels; an address dirty
        in both is counted once — L1 dirty implies the L2 copy is stale and
        only one line's worth of data goes to memory).
        """
        if not (self._l1_dirty or self._l2_dirty):
            return 0
        flushed = set(self.l1d.flush_dirty())
        flushed.update(self.l2.flush_dirty())
        self.writebacks += len(flushed)
        return len(flushed)

    def dirty_line_count(self) -> int:
        """Distinct dirty lines across both levels."""
        return len(self.l1d.dirty_lines() | self.l2.dirty_lines())
