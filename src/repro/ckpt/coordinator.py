"""Checkpoint coordination: boundary placement and cost models.

Boundary placement follows the paper's setup: N checkpoints uniformly
distributed over the (error-free) execution time.  The cost of one
boundary comprises

* a coordination barrier among the participating cores (NoC model),
* flushing every participant's dirty cache lines to memory
  (bandwidth-limited through the participants' memory controllers), and
* writing each participant's architectural state.

The barrier and the architectural state depend only on the participant
set and are priced once per set; the flush is priced per boundary from
the dirty lines each controller streams.

Under **global** coordination all cores participate in every boundary and
contend for all controllers simultaneously.  Under **local** coordination
only the cores of one communicating cluster synchronize; clusters take
their checkpoints *staggered*, so each cluster is priced alone and its
flush traffic contends only with itself — the two effects (smaller
barrier, less controller contention) are exactly the scalability
advantages §V-E attributes to local schemes.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, NamedTuple, Sequence, Tuple

from repro.arch.config import MachineConfig
from repro.arch.hierarchy import CoreCacheHierarchy
from repro.arch.memctrl import MemoryController, MemorySystem
from repro.arch.noc import MeshNoc
from repro.energy.accounting import EnergyLedger
from repro.energy.model import EnergyModel
from repro.util.validation import check_positive

__all__ = [
    "uniform_boundaries",
    "BoundaryCost",
    "CheckpointCostModel",
    "GlobalCoordinator",
    "LocalCoordinator",
]


def uniform_boundaries(total_useful_ns: float, num_checkpoints: int) -> List[float]:
    """Useful-time targets of N uniformly distributed checkpoints.

    The k-th checkpoint (1-based) triggers when useful progress reaches
    ``k * total / N`` — the last one coincides with program completion.
    """
    check_positive("total_useful_ns", total_useful_ns)
    check_positive("num_checkpoints", num_checkpoints)
    step = total_useful_ns / num_checkpoints
    return [step * k for k in range(1, num_checkpoints + 1)]


class BoundaryCost(NamedTuple):
    """Time/traffic breakdown of one checkpoint boundary for one cluster."""

    barrier_ns: float
    flush_ns: float
    arch_ns: float
    flushed_lines: int
    flushed_bytes: int
    arch_bytes: int

    @property
    def total_ns(self) -> float:
        """Wall-clock cost charged to every participant."""
        return self.barrier_ns + self.flush_ns + self.arch_ns


class _ClusterConstants(NamedTuple):
    """The part of a cluster's boundary cost that depends only on who
    participates: priced once per participant tuple."""

    barrier_ns: float
    barrier_pj: float
    arch_bytes: int
    arch_ns: float
    arch_dram_pj: float
    arch_regfile_pj: float
    #: ``(controller, cores behind it)`` in first-participant order.
    flush_groups: Tuple[Tuple[MemoryController, Tuple[int, ...]], ...]
    #: ``(controller, arch-state bytes it streams)``, non-zero only.
    arch_transfers: Tuple[Tuple[MemoryController, int], ...]


class CheckpointCostModel:
    """Computes boundary costs from live machine state.

    A boundary's barrier, architectural-state transfer and their energy
    depend only on the participant set, so each set is priced once, by
    its first boundary through the counting NoC and controller calls;
    later boundaries of the set replay those counter updates.  What is
    left per boundary is the flush, in time and energy proportional to
    the dirty lines it writes back.
    """

    def __init__(
        self,
        config: MachineConfig,
        noc: MeshNoc,
        memsys: MemorySystem,
        energy: EnergyModel,
    ) -> None:
        self.config = config
        self.noc = noc
        self.memsys = memsys
        self.energy = energy
        self._line_bytes = config.line_bytes
        self._constants: Dict[Tuple[int, ...], _ClusterConstants] = {}

    def _price(self, participants: Tuple[int, ...]) -> _ClusterConstants:
        """Constants of ``participants``' boundary, counted as this
        boundary's own barrier and architectural-state transfer."""
        cfg = self.config
        energy = self.energy
        memsys = self.memsys
        n = len(participants)
        groups: Dict[int, List[int]] = {}
        for core in participants:
            groups.setdefault(memsys.controller_for_core(core).index, []).append(core)
        arch_bytes = cfg.arch_state_bytes * n
        hops = self.noc.diameter_hops(n)
        return _ClusterConstants(
            barrier_ns=self.noc.barrier_latency_ns(n),
            barrier_pj=2 * hops * n * energy.noc_hop_pj,
            arch_bytes=arch_bytes,
            arch_ns=memsys.bulk_transfer_time_ns(
                {core: cfg.arch_state_bytes for core in participants}
            ),
            arch_dram_pj=energy.dram_transfer_pj(arch_bytes),
            arch_regfile_pj=(arch_bytes / 8) * energy.regfile_access_pj,
            flush_groups=tuple(
                (memsys.controllers[index], tuple(cores))
                for index, cores in groups.items()
            ),
            arch_transfers=tuple(
                (memsys.controllers[index], cfg.arch_state_bytes * len(cores))
                for index, cores in groups.items()
                if cfg.arch_state_bytes
            ),
        )

    def boundary_cost(
        self,
        participants: Sequence[int],
        hierarchies: Sequence[CoreCacheHierarchy],
        ledger: EnergyLedger,
    ) -> BoundaryCost:
        """Cost of one boundary for ``participants``; flushes their caches.

        Mutates cache state (dirty lines become clean), counts the
        barrier and the controllers' traffic, and accumulates the
        boundary's energy into ``ledger``.
        """
        key = tuple(participants)
        const = self._constants.get(key)
        if const is None:
            const = self._constants[key] = self._price(key)
        else:
            self.noc.barriers += 1
            for ctrl, num_bytes in const.arch_transfers:
                ctrl.bytes_transferred += num_bytes

        # The flush streams each controller's share of the dirty lines;
        # it completes when the slowest controller drains.
        line_bytes = self._line_bytes
        flushed_lines = 0
        flush_ns = 0.0
        for ctrl, cores in const.flush_groups:
            lines = 0
            for core in cores:
                lines += hierarchies[core].flush_dirty_lines()
            if lines:
                flushed_lines += lines
                flush_ns = max(flush_ns, ctrl.transfer_time_ns(lines * line_bytes))
        flushed_bytes = flushed_lines * line_bytes

        ledger.add("ckpt.flush", self.energy.dram_transfer_pj(flushed_bytes))
        ledger.add("ckpt.arch", const.arch_dram_pj)
        ledger.add("ckpt.arch", const.arch_regfile_pj)
        ledger.add("ckpt.barrier", const.barrier_pj)
        return BoundaryCost(
            const.barrier_ns, flush_ns, const.arch_ns,
            flushed_lines, flushed_bytes, const.arch_bytes,
        )


class GlobalCoordinator:
    """Coordinated global checkpointing: every boundary involves all cores."""

    scheme = "global"

    def __init__(self, num_cores: int) -> None:
        self.num_cores = num_cores
        self._clusters = [frozenset(range(num_cores))]

    def clusters(self, directory) -> List[FrozenSet[int]]:
        """One cluster spanning every core (the same list every time)."""
        return self._clusters


class LocalCoordinator:
    """Coordinated local checkpointing: clusters from directory tracking.

    Clusters are the communicating-core groups the directory observed in
    the closing interval.  Each cluster checkpoints on its own
    (staggered), so it is priced alone.
    """

    scheme = "local"

    def __init__(self, num_cores: int) -> None:
        self.num_cores = num_cores

    def clusters(self, directory) -> List[FrozenSet[int]]:
        """The directory's communicating clusters for this interval."""
        return directory.communication_groups()
