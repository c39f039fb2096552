"""Overhead and energy decomposition of a finished run.

The paper's cost model (Eqs. 1–3) splits BER overhead into checkpointing
(o_chk) and recovery (o_rec = o_waste + o_roll-back [+ o_rcmp]) terms;
these helpers extract exactly those terms from a :class:`RunResult` so
reports and tests can reason about *where* ACR's savings come from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.sim.results import RunResult
from repro.util.tables import format_table

__all__ = [
    "OverheadDecomposition",
    "RecoveryAnatomy",
    "decompose_overhead",
    "recovery_anatomy",
    "energy_by_category",
]


@dataclass(frozen=True)
class OverheadDecomposition:
    """Critical-path overhead split (all in nanoseconds)."""

    boundary_ns: float       # barriers + flushes + arch-state writes
    recovery_ns: float       # waste + rollback + recomputation
    execution_ns: float      # in-interval costs: log stalls, ASSOC-ADDR
    total_ns: float

    def rows(self) -> List[List[object]]:
        def pct(x: float) -> float:
            return round(100.0 * x / self.total_ns, 1) if self.total_ns else 0.0

        return [
            ["boundary (o_chk: barrier+flush+arch)", round(self.boundary_ns, 1), pct(self.boundary_ns)],
            ["in-interval (log writes, ASSOC-ADDR)", round(self.execution_ns, 1), pct(self.execution_ns)],
            ["recovery (o_waste+o_rollback+o_rcmp)", round(self.recovery_ns, 1), pct(self.recovery_ns)],
            ["TOTAL overhead", round(self.total_ns, 1), 100.0],
        ]

    def describe(self) -> str:
        """Rendered decomposition table."""
        return format_table(["component", "ns", "%"], self.rows())


def decompose_overhead(run: RunResult) -> OverheadDecomposition:
    """Split a run's critical-path overhead into Eq. 1–3 components.

    ``execution_ns`` is the residual after boundaries and recoveries —
    the log-write stalls and ASSOC-ADDR slots charged during intervals
    (plus barrier-wait imbalance, which is also an execution artifact).
    """
    boundary = run.checkpoint_time_ns
    recovery = run.recovery_time_ns
    total = run.overhead_ns
    execution = max(0.0, total - boundary - recovery)
    return OverheadDecomposition(
        boundary_ns=boundary,
        recovery_ns=recovery,
        execution_ns=execution,
        total_ns=total,
    )


@dataclass(frozen=True)
class RecoveryAnatomy:
    """Aggregate Eq. 2/3 terms over all of a run's recoveries."""

    count: int
    waste_ns: float
    rollback_ns: float
    recompute_ns: float
    restored_records: int
    recomputed_values: int

    @property
    def total_ns(self) -> float:
        """o_rec summed over recoveries."""
        return self.waste_ns + self.rollback_ns + self.recompute_ns


def recovery_anatomy(run: RunResult) -> RecoveryAnatomy:
    """Aggregate the recovery cost terms of a run."""
    column = run.recoveries.column
    return RecoveryAnatomy(
        count=run.recovery_count,
        waste_ns=sum(column("waste_ns")),
        rollback_ns=sum(column("rollback_ns")),
        recompute_ns=sum(column("recompute_ns")),
        restored_records=sum(column("restored_records")),
        recomputed_values=sum(column("recomputed_values")),
    )


#: Ledger-bucket prefix -> human category.
_CATEGORIES: Tuple[Tuple[str, str], ...] = (
    ("core.", "execution (cores)"),
    ("mem.", "memory hierarchy"),
    ("ckpt.", "checkpointing"),
    ("acr.", "ACR structures"),
    ("rec.", "recovery"),
    ("static.", "leakage"),
)


def energy_by_category(run: RunResult) -> Dict[str, float]:
    """Group the energy ledger into the standard report categories (pJ)."""
    out: Dict[str, float] = {}
    for prefix, label in _CATEGORIES:
        pj = run.energy.total_pj(prefix)
        if pj:
            out[label] = pj
    other = run.energy.total_pj() - sum(out.values())
    if other > 1e-9:
        out["other"] = other
    return out
