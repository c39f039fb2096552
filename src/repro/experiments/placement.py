"""Recomputation-aware checkpoint placement (the paper's future work).

§V-D1 and §V-D3 both observe that uniformly distributed checkpoints can
land in intervals with few recomputable values, and suggest "adjusting the
time to checkpoint to exploit more recomputation opportunities ... instead
of blindly checkpointing in uniformly distributed intervals".

This module implements that extension: given a *profiling run*'s
per-interval recomputability (measured on a fine uniform grid), it selects
N boundaries that maximise the omittable fraction subject to a bound on
interval stretch (so ``o_waste`` stays bounded), then replays the workload
with the skewed boundaries.

The bench ``benchmarks/bench_placement.py`` compares uniform vs. aware
placement on the temporal-variation-heavy benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.sim.results import RunResult
from repro.util.validation import check_in_range, check_positive

__all__ = ["PlacementPlan", "aware_boundaries", "profile_reductions"]


@dataclass(frozen=True)
class PlacementPlan:
    """Selected boundary times (useful-ns) and the profile they came from."""

    boundaries: List[float]
    profile_grid: List[float]
    profile_reduction: List[float]


def profile_reductions(profile_run: RunResult) -> List[float]:
    """Per-interval omittable fraction from a fine-grained ACR run."""
    return profile_run.interval_reductions()


def aware_boundaries(
    profile_run: RunResult,
    num_checkpoints: int,
    max_stretch: float = 1.6,
) -> PlacementPlan:
    """Pick ``num_checkpoints`` boundaries skewed toward recomputation.

    The profiling run's interval grid provides candidate boundary points
    scored by the recomputability of the interval they *close* (a boundary
    right after a recomputation-rich stretch lets the next interval omit
    those values).  A greedy pass walks the grid keeping intervals within
    ``max_stretch`` of the uniform period while preferring high-scoring
    candidates.

    The final boundary is always the run's end (matching the uniform
    scheme); boundaries are strictly increasing.
    """
    check_positive("num_checkpoints", num_checkpoints)
    check_in_range("max_stretch", max_stretch, 1.0, 4.0)
    grid = list(profile_run.intervals.column("useful_ns"))
    scores = profile_reductions(profile_run)
    if len(grid) < num_checkpoints:
        raise ValueError(
            f"profile grid ({len(grid)}) must be finer than the target "
            f"checkpoint count ({num_checkpoints})"
        )
    total = grid[-1]
    period = total / num_checkpoints
    max_gap = period * max_stretch

    boundaries: List[float] = []
    last = 0.0
    candidates = list(zip(grid, scores))
    ci = 0
    for k in range(1, num_checkpoints):
        window = [
            (t, s)
            for t, s in candidates
            if last < t <= last + max_gap and t < total
        ]
        if not window:
            chosen = min(last + period, total - 1e-9)
        else:
            # Prefer the highest-scoring candidate; break ties toward the
            # uniform position to keep waste bounded.
            target = last + period
            chosen = max(
                window, key=lambda ts: (ts[1], -abs(ts[0] - target))
            )[0]
        boundaries.append(chosen)
        last = chosen
    boundaries.append(total)
    return PlacementPlan(boundaries, grid, list(scores))
