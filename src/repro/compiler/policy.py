"""Slice-selection policies.

The evaluation in the paper uses a greedy length threshold ("consider all
Slices which have a lower number of instructions than a preset threshold,
which typically remains less than 10"); Section V-D1 sweeps the threshold.
A cost-model policy is provided as the paper's discussed alternative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro.compiler.costmodel import RecomputeCostModel
from repro.compiler.slices import Slice
from repro.util.validation import check_positive

__all__ = ["SelectionPolicy", "ThresholdPolicy", "CostModelPolicy"]

#: The paper's default threshold ("typically remains less than 10").
DEFAULT_SLICE_THRESHOLD = 10


class SelectionPolicy(Protocol):
    """Decides whether an extracted slice gets embedded into the binary.

    ``accept`` must depend only on the slice's structure (its length and
    frontier), which every kernel of one shape shares:
    :func:`~repro.compiler.embed.compile_program` asks once per store of
    each shape and applies the answer to all of the shape's kernels.
    """

    def accept(self, sl: Slice) -> bool:
        """True to embed ``sl``."""
        ...


@dataclass(frozen=True)
class ThresholdPolicy:
    """Greedy selection: embed every slice not longer than ``max_length``."""

    max_length: int = DEFAULT_SLICE_THRESHOLD

    def __post_init__(self) -> None:
        check_positive("max_length", self.max_length)

    def accept(self, sl: Slice) -> bool:
        """Embed iff the slice length is within the threshold."""
        return 0 < sl.length <= self.max_length


@dataclass(frozen=True)
class CostModelPolicy:
    """Embed a slice only when recomputation is estimated cost-effective.

    ``metric`` selects the comparison: ``"energy"``, ``"latency"`` or
    ``"both"`` (the conservative conjunction).
    """

    model: RecomputeCostModel = field(default_factory=RecomputeCostModel)
    metric: str = "both"

    def __post_init__(self) -> None:
        if self.metric not in ("energy", "latency", "both"):
            raise ValueError(f"unknown metric {self.metric!r}")

    def accept(self, sl: Slice) -> bool:
        """Embed iff recomputing beats restoring under the chosen metric."""
        if sl.is_trivial:
            return False
        if self.metric == "energy":
            return self.model.is_energy_effective(sl)
        if self.metric == "latency":
            return self.model.is_latency_effective(sl)
        return self.model.is_energy_effective(sl) and self.model.is_latency_effective(
            sl
        )
