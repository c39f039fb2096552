"""Monte Carlo injection campaigns: build, aggregate, report.

A campaign is a sweep over seeds × workloads × injection targets, run
once per checkpointing configuration (BER baseline and ACR).  Trials are
plain :class:`~repro.inject.harness.TrialSpec` values, so campaigns fan
out through :meth:`repro.experiments.runner.ExperimentRunner.run_trials`
— memoised, persistently cached per trial, parallelisable — and the
report aggregates whatever that returns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.inject.harness import (
    CONFIGS,
    OUTCOMES,
    TARGET_KINDS,
    TrialResult,
    TrialSpec,
)
from repro.util.tables import format_table
from repro.util.validation import check_positive

__all__ = ["CampaignReport", "build_trials", "run_campaign"]


def build_trials(
    workloads: Sequence[str],
    trials: int,
    seed: int = 0,
    configs: Sequence[str] = CONFIGS,
    targets: Sequence[str] = TARGET_KINDS,
    num_cores: int = 2,
    steps_per_interval: int = 4,
    iters_per_step: int = 8,
    region_scale: float = 0.05,
    reps: Optional[int] = 4,
    threshold: Optional[int] = None,
    detection_latency_fraction: float = 0.5,
    defect: Optional[str] = None,
) -> List[TrialSpec]:
    """``trials`` specs *per configuration*, rotating workloads/targets.

    Trial ``i`` of a configuration draws workload ``i mod W`` and target
    ``(i // W) mod T`` with seed ``seed + i``.  The two indices are
    decoupled — a shared ``i mod ·`` rotation would only ever visit
    pairs congruent mod ``gcd(W, T)`` (with the default four workloads
    and four targets: 4 of the 16 pairs) — so every (workload, target)
    pair is covered once ``trials >= W * T``.  The memory image uses the
    campaign-level ``seed`` for every trial: initial memory contents are
    part of the *workload recipe*, letting all trials of one (workload,
    config) share a single golden pass and its boundary snapshots, while
    the per-trial RNG (seeded ``seed + i``) randomises everything else
    (injection step, victim address/register/bit).
    """
    check_positive("trials", trials)
    if not workloads:
        raise ValueError("build_trials needs at least one workload")
    if not targets:
        raise ValueError("build_trials needs at least one target")
    specs: List[TrialSpec] = []
    for config in configs:
        for i in range(trials):
            specs.append(TrialSpec(
                workload=workloads[i % len(workloads)],
                config=config,
                seed=seed + i,
                target=targets[(i // len(workloads)) % len(targets)],
                num_cores=num_cores,
                steps_per_interval=steps_per_interval,
                iters_per_step=iters_per_step,
                region_scale=region_scale,
                reps=reps,
                threshold=threshold,
                memory_seed=seed,
                detection_latency_fraction=detection_latency_fraction,
                defect=defect,
            ))
    return specs


@dataclass
class _ConfigTally:
    """Outcome counts for one configuration row."""

    trials: int = 0
    detected: int = 0
    recovered_exact: int = 0
    diverged: int = 0
    unrecoverable: int = 0
    restored_records: int = 0
    recomputed_values: int = 0
    ecc_lookup_hits: int = 0

    def to_dict(self) -> Dict[str, int]:
        return dict(vars(self))


@dataclass
class CampaignReport:
    """Aggregated campaign outcome: per-configuration tallies + samples."""

    results: List[TrialResult]
    tallies: Dict[str, _ConfigTally] = field(init=False)

    def __post_init__(self) -> None:
        self.tallies = {}
        for result in self.results:
            tally = self.tallies.setdefault(
                result.spec.config, _ConfigTally()
            )
            tally.trials += 1
            # Every injected fault reaches the scheduled detection point
            # (or an earlier ECC lookup hit); the campaign treats both as
            # detected — silent corruption would show up as a divergence.
            tally.detected += 1
            if result.outcome == "recovered-exact":
                tally.recovered_exact += 1
            elif result.outcome == "diverged":
                tally.diverged += 1
            else:
                tally.unrecoverable += 1
            tally.restored_records += result.restored_records
            tally.recomputed_values += result.recomputed_values
            tally.ecc_lookup_hits += result.ecc_lookup_hits

    # -- verdicts ------------------------------------------------------------
    @property
    def diverged(self) -> int:
        return sum(t.diverged for t in self.tallies.values())

    @property
    def unrecoverable(self) -> int:
        return sum(t.unrecoverable for t in self.tallies.values())

    @property
    def ok(self) -> bool:
        """True iff every trial recovered bit-exactly."""
        return self.diverged == 0 and self.unrecoverable == 0

    def divergent_trials(self) -> List[TrialResult]:
        """Trials that failed verification, with full provenance."""
        return [r for r in self.results if r.outcome == "diverged"]

    # -- rendering -----------------------------------------------------------
    def summary_table(self) -> str:
        rows = []
        for config in sorted(self.tallies):
            t = self.tallies[config]
            rows.append([
                config, t.trials, t.detected, t.recovered_exact,
                t.diverged, t.unrecoverable,
                t.restored_records, t.recomputed_values,
            ])
        return format_table(
            ["config", "trials", "detected", "recovered-exact", "diverged",
             "unrecoverable", "restored", "recomputed"],
            rows,
            title="fault-injection campaign",
        )

    def verdict_line(self) -> str:
        if self.ok:
            return (
                f"all {len(self.results)} trials recovered bit-exactly"
            )
        return (
            f"FAILED: {self.diverged} diverged, "
            f"{self.unrecoverable} unrecoverable "
            f"of {len(self.results)} trials"
        )

    def to_json_dict(self) -> Dict[str, Any]:
        """Machine-readable report (the ``--json`` artifact)."""
        by_outcome: Dict[str, int] = {o: 0 for o in OUTCOMES}
        for result in self.results:
            # An outcome outside OUTCOMES (a newer producer's vocabulary)
            # gets its own key rather than crashing the report writer.
            by_outcome[result.outcome] = by_outcome.get(result.outcome, 0) + 1
        return {
            "ok": self.ok,
            "trials": len(self.results),
            "outcomes": by_outcome,
            "configs": {
                name: tally.to_dict()
                for name, tally in sorted(self.tallies.items())
            },
            "divergent": [r.to_dict() for r in self.divergent_trials()],
        }

    def write_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def run_campaign(runner, specs: Sequence[TrialSpec]) -> CampaignReport:
    """Resolve ``specs`` through an :class:`ExperimentRunner` (duck-typed
    to avoid an import cycle) and aggregate the report."""
    return CampaignReport(list(runner.run_trials(specs)))
