"""The trace-driven simulator that ties everything together.

``machine``   — assembles the Table-I machine from its components;
``simulator`` — the run loop: interpret all threads, checkpoint at
                uniformly distributed boundaries, inject errors, recover;
``results``   — run statistics and derived overhead/EDP metrics.

The central object is :class:`~repro.sim.simulator.Simulator`; see
``examples/quickstart.py`` for the canonical usage pattern.
"""

from repro.sim.machine import Machine
from repro.sim.results import (
    BaselineProfile,
    IntervalStats,
    RecoveryStats,
    RunResult,
    StatsTable,
    energy_overhead,
    time_overhead,
)
from repro.sim.simulator import SimulationOptions, Simulator

__all__ = [
    "Machine",
    "BaselineProfile",
    "IntervalStats",
    "RecoveryStats",
    "RunResult",
    "StatsTable",
    "time_overhead",
    "energy_overhead",
    "SimulationOptions",
    "Simulator",
]
