"""Tests for repro.ckpt.coordinator."""

import pytest

from repro.arch.config import MachineConfig
from repro.arch.directory import Directory
from repro.arch.hierarchy import CoreCacheHierarchy
from repro.arch.memctrl import MemorySystem
from repro.arch.noc import MeshNoc
from repro.ckpt.coordinator import (
    CheckpointCostModel,
    GlobalCoordinator,
    LocalCoordinator,
    uniform_boundaries,
)
from repro.energy.accounting import EnergyLedger
from repro.energy.model import EnergyModel


@pytest.fixture
def parts():
    cfg = MachineConfig(num_cores=8)
    return (
        cfg,
        MeshNoc(cfg),
        MemorySystem(cfg),
        [CoreCacheHierarchy(cfg) for _ in range(8)],
    )


class TestUniformBoundaries:
    def test_count_and_spacing(self):
        b = uniform_boundaries(100.0, 4)
        assert b == [25.0, 50.0, 75.0, 100.0]

    def test_last_at_completion(self):
        assert uniform_boundaries(333.0, 7)[-1] == pytest.approx(333.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            uniform_boundaries(0.0, 4)
        with pytest.raises(ValueError):
            uniform_boundaries(10.0, 0)


class TestCheckpointCostModel:
    def test_flush_cost_scales_with_dirty_lines(self, parts):
        cfg, noc, ms, hiers = parts
        model = CheckpointCostModel(cfg, noc, ms, EnergyModel())
        for line in range(100):
            hiers[0].access(line * 64, True)
        ledger = EnergyLedger()
        cost = model.boundary_cost(range(8), hiers, ledger)
        assert cost.flushed_lines == 100
        assert cost.flushed_bytes == 6400
        assert cost.flush_ns > 0
        assert ledger.get("ckpt.flush") > 0

    def test_flush_clears_dirty_state(self, parts):
        cfg, noc, ms, hiers = parts
        model = CheckpointCostModel(cfg, noc, ms, EnergyModel())
        hiers[1].access(0, True)
        model.boundary_cost(range(8), hiers, EnergyLedger())
        cost2 = model.boundary_cost(range(8), hiers, EnergyLedger())
        assert cost2.flushed_lines == 0

    def test_arch_bytes_per_participant(self, parts):
        cfg, noc, ms, hiers = parts
        model = CheckpointCostModel(cfg, noc, ms, EnergyModel())
        cost = model.boundary_cost([0, 1], hiers, EnergyLedger())
        assert cost.arch_bytes == 2 * cfg.arch_state_bytes

    def test_smaller_cluster_cheaper_barrier(self, parts):
        cfg, noc, ms, hiers = parts
        model = CheckpointCostModel(cfg, noc, ms, EnergyModel())
        small = model.boundary_cost([0, 1], hiers, EnergyLedger())
        big = model.boundary_cost(list(range(8)), hiers, EnergyLedger())
        assert small.barrier_ns < big.barrier_ns

    def test_total_is_sum(self, parts):
        cfg, noc, ms, hiers = parts
        model = CheckpointCostModel(cfg, noc, ms, EnergyModel())
        cost = model.boundary_cost(range(4), hiers, EnergyLedger())
        assert cost.total_ns == pytest.approx(
            cost.barrier_ns + cost.flush_ns + cost.arch_ns
        )


class TestCoordinators:
    def test_global_single_cluster(self):
        g = GlobalCoordinator(8)
        clusters = g.clusters(Directory(8))
        assert clusters == [frozenset(range(8))]

    def test_local_uses_directory_groups(self):
        d = Directory(8)
        d.record_access(0, 1)
        d.record_access(1, 1)
        loc = LocalCoordinator(8)
        clusters = loc.clusters(d)
        assert frozenset({0, 1}) in clusters

    def test_scheme_labels(self):
        assert GlobalCoordinator(4).scheme == "global"
        assert LocalCoordinator(4).scheme == "local"
