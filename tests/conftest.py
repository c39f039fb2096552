"""Shared fixtures for the test suite.

The heavier fixtures (small end-to-end simulations) are session-scoped so
integration-style assertions across multiple test modules reuse one run.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import pytest

from repro.arch.config import MachineConfig
from repro.ckpt.coordinator import CheckpointCostModel
from repro.isa.builder import chain_kernel
from repro.isa.instructions import AddressPattern
from repro.isa.program import Program
from repro.sim import simulator as simulator_mod
from repro.sim.results import RunResult
from repro.sim.simulator import SimulationOptions, Simulator
from repro.workloads.spec import SliceLenBucket, WorkloadSpec


def tiny_machine(num_cores: int = 4) -> MachineConfig:
    """A small Table-I machine for fast tests."""
    return MachineConfig(num_cores=num_cores)


def tiny_programs(num_cores: int = 4, reps: int = 12, depth: int = 4):
    """Minimal multi-core programs: one chain site per thread per rep."""
    programs = []
    for t in range(num_cores):
        base = (t + 1) << 24
        kernels = []
        for rep in range(reps):
            kernels.append(
                chain_kernel(
                    f"k{rep}",
                    AddressPattern(base, 1, 64),
                    [AddressPattern(base + (1 << 20), 1, 64, offset=rep % 64)],
                    chain_depth=depth,
                    trip_count=64,
                    phase=rep,
                    salt=t * 1000 + rep,
                )
            )
        programs.append(Program(kernels, t))
    return programs


def dirty_sets(hierarchies):
    """Per-core ``(L1-D dirty lines, L2 dirty lines)``."""
    return [(h.l1d.dirty_lines(), h.l2.dirty_lines()) for h in hierarchies]


@contextmanager
def recording_caches():
    """Watch the cache state of every run started inside the block.

    Yields ``(machines, boundaries)``: each run's :class:`Machine` in
    start order, and one ``(participants, before, after)`` record per
    checkpoint cluster flush, where ``before``/``after`` are
    :func:`dirty_sets` of every core around the flush.
    """
    machines, boundaries = [], []
    real_machine = simulator_mod.Machine
    real_cost = CheckpointCostModel.boundary_cost

    class RecordingMachine(real_machine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            machines.append(self)

    def boundary_cost(self, participants, hierarchies, ledger):
        before = dirty_sets(hierarchies)
        cost = real_cost(self, participants, hierarchies, ledger)
        boundaries.append((tuple(participants), before, dirty_sets(hierarchies)))
        return cost

    with (
        mock.patch.object(simulator_mod, "Machine", RecordingMachine),
        mock.patch.object(CheckpointCostModel, "boundary_cost", boundary_cost),
    ):
        yield machines, boundaries


def tiny_workload(**overrides) -> WorkloadSpec:
    """A small but structurally complete workload spec."""
    defaults = dict(
        name="tiny",
        region_words=64,
        reps=24,
        sites=8,
        ghost_alu=10,
        len_mix=(
            SliceLenBucket(0.5, 2, 8),
            SliceLenBucket(0.3, 12, 20),
        ),
        copy_frac=0.1,
        accum_frac=0.1,
        cluster_size=2,
        seed=42,
    )
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


@pytest.fixture(scope="session")
def small_config() -> MachineConfig:
    return tiny_machine(4)


@pytest.fixture(scope="session")
def small_simulator(small_config) -> Simulator:
    return Simulator(tiny_programs(4), small_config)


@pytest.fixture(scope="session")
def small_baseline(small_simulator) -> RunResult:
    return small_simulator.run_baseline()


@pytest.fixture(scope="session")
def small_ckpt_run(small_simulator, small_baseline) -> RunResult:
    return small_simulator.run(
        SimulationOptions(
            label="Ckpt_NE",
            scheme="global",
            num_checkpoints=6,
            baseline=small_baseline.baseline_profile(),
        )
    )


@pytest.fixture(scope="session")
def small_acr_run(small_simulator, small_baseline) -> RunResult:
    return small_simulator.run(
        SimulationOptions(
            label="ReCkpt_NE",
            scheme="global",
            acr=True,
            num_checkpoints=6,
            baseline=small_baseline.baseline_profile(),
        )
    )
