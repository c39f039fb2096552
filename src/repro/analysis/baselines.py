"""What-if checkpointing baselines computed over a finished run.

Both models consume a run's exact per-interval statistics, so they cost
nothing to evaluate and compose with every configuration:

* :func:`full_snapshot_costs` — the traditional non-incremental scheme:
  every checkpoint copies the entire touched memory image.  The paper
  uses log-based incremental checkpointing precisely because this is
  "a relatively lower-overhead baseline ... not to favor ACR"; this model
  quantifies the gap.
* :func:`hierarchical_costs` — in-memory checkpointing as the first level
  of a hierarchical framework (paper §II-A): every K-th checkpoint is
  additionally drained to secondary storage.  ACR's smaller checkpoints
  shrink the drained volume proportionally.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.results import RunResult
from repro.util.validation import check_positive

__all__ = [
    "FullSnapshotCosts",
    "HierarchicalConfig",
    "HierarchicalCosts",
    "full_snapshot_costs",
    "hierarchical_costs",
]


@dataclass(frozen=True)
class FullSnapshotCosts:
    """Traditional full-snapshot checkpointing, costed post-hoc."""

    total_bytes: int
    max_bytes: int
    write_time_ns: float
    #: How many times more data than the incremental log this would move.
    inflation: float


def full_snapshot_costs(
    run: RunResult, aggregate_bandwidth_bytes_per_s: float = 15.2e9
) -> FullSnapshotCosts:
    """Cost of full snapshots at this run's checkpoint times.

    Each snapshot copies the whole written memory footprint at its
    boundary (``IntervalStats.footprint_bytes``); the write time assumes
    the machine's aggregate memory bandwidth.
    """
    check_positive(
        "aggregate_bandwidth_bytes_per_s", aggregate_bandwidth_bytes_per_s
    )
    if not run.intervals:
        return FullSnapshotCosts(0, 0, 0.0, 0.0)
    sizes = run.intervals.column("footprint_bytes")
    total = sum(sizes)
    incremental = run.total_checkpoint_bytes
    return FullSnapshotCosts(
        total_bytes=total,
        max_bytes=max(sizes),
        write_time_ns=total / aggregate_bandwidth_bytes_per_s * 1e9,
        inflation=(total / incremental) if incremental else float("inf"),
    )


@dataclass(frozen=True)
class HierarchicalConfig:
    """Second-level (secondary-storage) checkpointing parameters."""

    every_k: int = 5
    bandwidth_bytes_per_s: float = 2.0e9
    latency_ns: float = 10_000.0

    def __post_init__(self) -> None:
        check_positive("every_k", self.every_k)
        check_positive("bandwidth_bytes_per_s", self.bandwidth_bytes_per_s)
        check_positive("latency_ns", self.latency_ns)


@dataclass(frozen=True)
class HierarchicalCosts:
    """Added cost of draining every K-th checkpoint to storage."""

    drained_checkpoints: int
    drained_bytes: int
    drain_time_ns: float


def hierarchical_costs(
    run: RunResult, config: HierarchicalConfig | None = None
) -> HierarchicalCosts:
    """Second-level drain volume/time for this run.

    The drained payload of level-2 checkpoint ``j`` is the union of the
    interval logs since the previous drain — conservatively approximated
    by their sum (an upper bound; overlapping addresses would dedupe).
    ACR's omissions carry through: omitted values are recomputable from
    the (tiny, on-chip-backed) AddrMap state, so they are not drained
    either.
    """
    config = config or HierarchicalConfig()
    drained_bytes = 0
    drained = 0
    pending = 0
    for index, logged_bytes in zip(run.intervals.column("index"),
                                   run.intervals.column("logged_bytes")):
        pending += logged_bytes
        if (index + 1) % config.every_k == 0:
            drained_bytes += pending
            drained += 1
            pending = 0
    drain_time = (
        drained * config.latency_ns
        + drained_bytes / config.bandwidth_bytes_per_s * 1e9
    )
    return HierarchicalCosts(
        drained_checkpoints=drained,
        drained_bytes=drained_bytes,
        drain_time_ns=drain_time,
    )
