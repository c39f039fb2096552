"""Checkpoint coordination: boundary placement and cost models.

Boundary placement follows the paper's setup: N checkpoints uniformly
distributed over the (error-free) execution time.  The cost of one
boundary comprises

* a coordination barrier among the participating cores (NoC model),
* flushing every participant's dirty cache lines to memory
  (bandwidth-limited through the participants' memory controllers), and
* writing each participant's architectural state.

Under **global** coordination all cores participate in every boundary and
contend for all controllers simultaneously.  Under **local** coordination
only the cores of one communicating cluster synchronize; clusters take
their checkpoints *staggered*, so a cluster's flush traffic contends only
with itself — the two effects (smaller barrier, less controller contention)
are exactly the scalability advantages §V-E attributes to local schemes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence

from repro.arch.config import MachineConfig
from repro.arch.hierarchy import CoreCacheHierarchy
from repro.arch.memctrl import MemorySystem
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


@dataclass(frozen=True, slots=True)
class BoundaryCost:
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


class CheckpointCostModel:
    """Computes boundary costs from live machine state."""

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

    def boundary_cost(
        self,
        participants: Sequence[int],
        hierarchies: Sequence[CoreCacheHierarchy],
        ledger: EnergyLedger,
    ) -> BoundaryCost:
        """Cost of one boundary for ``participants``; flushes their caches.

        Mutates cache state (dirty lines become clean) and accumulates the
        boundary's energy into ``ledger``.
        """
        cfg = self.config
        barrier_ns = self.noc.barrier_latency_ns(len(participants))

        flush_bytes_per_core: Dict[int, int] = {}
        flushed_lines = 0
        for core in participants:
            lines = hierarchies[core].flush_dirty_lines()
            flushed_lines += lines
            flush_bytes_per_core[core] = lines * cfg.line_bytes
        flushed_bytes = flushed_lines * cfg.line_bytes
        flush_ns = self.memsys.bulk_transfer_time_ns(flush_bytes_per_core)

        arch_bytes = cfg.arch_state_bytes * len(participants)
        arch_ns = self.memsys.bulk_transfer_time_ns(
            {core: cfg.arch_state_bytes for core in participants}
        )

        ledger.add("ckpt.flush", self.energy.dram_transfer_pj(flushed_bytes))
        ledger.add("ckpt.arch", self.energy.dram_transfer_pj(arch_bytes))
        ledger.add(
            "ckpt.arch",
            (arch_bytes / 8) * self.energy.regfile_access_pj,
        )
        hops = self.noc.diameter_hops(len(participants))
        ledger.add(
            "ckpt.barrier",
            2 * hops * len(participants) * self.energy.noc_hop_pj,
        )
        return BoundaryCost(
            barrier_ns=barrier_ns,
            flush_ns=flush_ns,
            arch_ns=arch_ns,
            flushed_lines=flushed_lines,
            flushed_bytes=flushed_bytes,
            arch_bytes=arch_bytes,
        )


class GlobalCoordinator:
    """Coordinated global checkpointing: every boundary involves all cores."""

    scheme = "global"

    def __init__(self, num_cores: int) -> None:
        self.num_cores = num_cores

    def clusters(self, directory) -> List[FrozenSet[int]]:
        """One cluster spanning every core."""
        return [frozenset(range(self.num_cores))]

    def contention_groups(
        self, clusters: List[FrozenSet[int]]
    ) -> List[List[FrozenSet[int]]]:
        """All clusters flush simultaneously (a single contention group)."""
        return [clusters]


class LocalCoordinator:
    """Coordinated local checkpointing: clusters from directory tracking.

    Clusters are the communicating-core groups the directory observed in
    the closing interval.  Staggered establishment means each cluster's
    flush traffic only contends with itself (its own contention group).
    """

    scheme = "local"

    def __init__(self, num_cores: int) -> None:
        self.num_cores = num_cores

    def clusters(self, directory) -> List[FrozenSet[int]]:
        """The directory's communicating clusters for this interval."""
        return directory.communication_groups()

    def contention_groups(
        self, clusters: List[FrozenSet[int]]
    ) -> List[List[FrozenSet[int]]]:
        """Each cluster checkpoints on its own (staggered)."""
        return [[c] for c in clusters]
