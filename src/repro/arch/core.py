"""In-order core timing model.

A 4-issue in-order core with 8 outstanding loads/stores (Table I).  The
model charges:

* ``instructions / issue_width`` cycles of pipeline occupancy, and
* memory stall time, with miss latencies divided by the effective
  memory-level parallelism (``mlp``, bounded by the outstanding-ld/st
  budget) to reflect overlap, while L1 hits are considered fully hidden by
  the in-order pipeline (their occupancy slot already paid).

This is a deliberate simplification of Sniper's interval model: the shape
of all paper results depends on relative magnitudes (compute vs. log vs.
flush traffic), which this level of detail preserves.
"""

from __future__ import annotations

from typing import Tuple

from repro.arch.config import MachineConfig
from repro.arch.hierarchy import DataAccess

__all__ = ["CoreTimingModel"]


class CoreTimingModel:
    """Accumulates one core's execution time in nanoseconds."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self._cycle = config.cycle_ns
        self._issue = config.issue_width
        self._mlp = config.mlp
        self._l1_latency = config.l1d.latency_ns

    def issue_time_ns(self, instructions: int) -> float:
        """Pipeline occupancy of ``instructions`` dynamic instructions."""
        return instructions / self._issue * self._cycle

    def stall_time_ns(self, access: DataAccess) -> float:
        """Stall contributed by one data access beyond its occupancy slot."""
        if access.l1_hit:
            return 0.0
        # Miss latency beyond L1, amortised over overlapping misses.
        extra = access.latency_ns - self._l1_latency
        return extra / self._mlp

    def miss_stalls_ns(self) -> Tuple[float, float]:
        """``(L2 hit, memory access)`` stalls of :meth:`stall_time_ns`,
        for engines that inline it: computed in its expression shape,
        ``(l1 + l2) - l1`` rather than ``l2`` (float addition is not
        associative, so the simplified constant can differ in the last
        bit)."""
        cfg = self.config
        l1 = cfg.l1d.latency_ns
        l2 = cfg.l2.latency_ns
        return (
            ((l1 + l2) - l1) / self._mlp,
            ((l1 + l2 + cfg.mem_latency_ns) - l1) / self._mlp,
        )

    def alu_burst_time_ns(self, instructions: int) -> float:
        """Serial ALU execution time (used for Slice recomputation, which
        runs as a dependent chain: no issue-width parallelism)."""
        return instructions * self._cycle
