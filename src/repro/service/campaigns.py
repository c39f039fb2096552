"""Campaign specifications and the deterministic campaign report.

A :class:`CampaignSpec` is the unit of submission: a cross product of
workloads × configurations plus every shape knob that reaches the cache
key, serialisable over the wire with a strict inverse.  Two clients
submitting equal specs name exactly the same canonical key set — the
runner's per-key claims dedupe on that, and :func:`campaign_report` renders
the outcome as a deterministic JSON document (simulated quantities only,
sorted runs, a self-certifying digest) so reports from the service, from
a solo runner, or from two concurrent clients can be compared with
``cmp``, byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.configs import CONFIG_NAMES, ConfigRequest
from repro.sim.results import energy_overhead, time_overhead
from repro.sim.simulator import ENGINES
from repro.util.validation import require_fields
from repro.workloads.registry import all_workload_names

__all__ = [
    "REPORT_VERSION",
    "CampaignSpec",
    "campaign_report",
    "render_report",
]

#: Bump when the report document layout changes.
REPORT_VERSION = 1


def _check_int(name: str, value: Any, low: int) -> None:
    """Raise ``ValueError`` unless ``value`` is an int (not a bool) that
    is at least ``low`` — wire input must never reach a comparison that
    raises ``TypeError`` instead."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ValueError(f"{name} must be an int >= {low}, got {value!r}")


@dataclass(frozen=True)
class CampaignSpec:
    """One submitted campaign: workloads × configs plus shape knobs.

    Field discipline mirrors :class:`ConfigRequest`: everything that can
    change a run's cache key lives here, ``to_dict``/``from_dict`` are
    strict inverses (wire drift raises, never misreads), and the frozen
    dataclass gives value equality — equal specs are the dedupe unit.
    ``engine`` rides along for execution but is deliberately absent from
    cache keys (engines are bit-identical; the equivalence suite pins
    it).
    """

    workloads: Tuple[str, ...]
    configs: Tuple[str, ...]
    num_cores: int = 8
    region_scale: float = 1.0
    reps: Optional[int] = None
    num_checkpoints: int = 25
    error_count: int = 1
    #: ``None``: each workload's paper-default slice threshold.
    threshold: Optional[int] = None
    memory_seed: int = 0
    engine: str = "interp"

    def __post_init__(self) -> None:
        if not isinstance(self.workloads, tuple):
            object.__setattr__(self, "workloads", tuple(self.workloads))
        if not isinstance(self.configs, tuple):
            object.__setattr__(self, "configs", tuple(self.configs))
        if not self.workloads:
            raise ValueError("campaign needs at least one workload")
        if not self.configs:
            raise ValueError("campaign needs at least one configuration")
        known = set(all_workload_names())
        for wl in self.workloads:
            if wl not in known:
                raise ValueError(
                    f"unknown workload {wl!r}; pick from {sorted(known)}"
                )
        for cfg in self.configs:
            if cfg not in CONFIG_NAMES:
                raise ValueError(
                    f"unknown configuration {cfg!r}; "
                    f"pick one of {CONFIG_NAMES}"
                )
        for name in ("num_cores", "num_checkpoints", "error_count"):
            _check_int(name, getattr(self, name), low=1)
        for name in ("reps", "threshold"):
            if getattr(self, name) is not None:
                _check_int(name, getattr(self, name), low=1)
        _check_int("memory_seed", self.memory_seed, low=0)
        scale = self.region_scale
        if (
            isinstance(scale, bool)
            or not isinstance(scale, (int, float))
            or not math.isfinite(scale)
            or scale <= 0
        ):
            raise ValueError(
                f"region_scale must be a positive real, got {scale!r}"
            )
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}")

    # ---------------------------------------------------------------- wire --
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe mapping (strict inverse: :meth:`from_dict`)."""
        doc: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            doc[f.name] = list(value) if isinstance(value, tuple) else value
        return doc

    @classmethod
    def from_dict(cls, doc: Any) -> "CampaignSpec":
        """Decode one spec; raises ``ValueError`` on any shape drift
        (the field validation in ``__post_init__`` covers the values)."""
        require_fields(doc, cls, "campaign spec")
        for name in ("workloads", "configs"):
            if not isinstance(doc[name], list) or not all(
                isinstance(x, str) for x in doc[name]
            ):
                raise ValueError(f"campaign {name} must be a string list")
        kwargs = dict(doc)
        kwargs["workloads"] = tuple(doc["workloads"])
        kwargs["configs"] = tuple(doc["configs"])
        return cls(**kwargs)

    # --------------------------------------------------------------- plan --
    def request_for(self, runner, workload: str, config: str) -> ConfigRequest:
        """The :class:`ConfigRequest` one (workload, config) cell runs.

        NoCkpt always canonicalises to the bare baseline request — the
        checkpoint knobs are meaningless for it but would reach the
        cache key and split one baseline into two."""
        if config == "NoCkpt":
            return ConfigRequest("NoCkpt", memory_seed=self.memory_seed)
        return ConfigRequest(
            config,
            num_checkpoints=self.num_checkpoints,
            error_count=self.error_count,
            threshold=(
                self.threshold
                if self.threshold is not None
                else runner.default_threshold(workload)
            ),
            memory_seed=self.memory_seed,
        )

    def pairs(self, runner) -> List[Tuple[str, ConfigRequest]]:
        """Every (workload, request) the campaign resolves, baselines
        included: overheads need each workload's NoCkpt run whether or
        not it was requested, and making that explicit keeps the
        canonical key set — the dedupe and dedupe-proof unit — exact."""
        out: Dict[Tuple[str, ConfigRequest], None] = {}
        for wl in self.workloads:
            out.setdefault(
                (wl, ConfigRequest("NoCkpt", memory_seed=self.memory_seed)),
                None,
            )
            for cfg in self.configs:
                out.setdefault((wl, self.request_for(runner, wl, cfg)), None)
        return list(out)

    def keys(self, runner) -> List[str]:
        """The canonical cache keys of :meth:`pairs` (same order)."""
        return [runner.cache_key(wl, req) for wl, req in self.pairs(runner)]


def campaign_report(runner, spec: CampaignSpec) -> Dict[str, Any]:
    """Execute ``spec`` on ``runner`` and build its deterministic report.

    The document carries **simulated** quantities only (wall/energy/
    checkpoint totals and overheads — all bit-identical across serial,
    pooled, service and post-chaos executions) plus a sha256 over its
    canonical runs array; wall-clock execution seconds stay out, so a
    report from any execution path ``cmp``\\ s clean against any other.
    """
    pairs = spec.pairs(runner)
    runner.run_many(pairs)
    runs: List[Dict[str, Any]] = []
    for wl, req in sorted(
        pairs, key=lambda p: (p[0], p[1].config, p[1].memory_seed)
    ):
        result = runner.run(wl, req)
        baseline = runner.baseline(wl, req.memory_seed)
        runs.append(
            {
                "workload": wl,
                "config": req.config,
                "key": runner.cache_key(wl, req),
                "wall_ns": result.wall_ns,
                "energy_pj": result.energy_pj,
                "checkpoint_bytes": result.total_checkpoint_bytes,
                "time_overhead": round(time_overhead(result, baseline), 12),
                "energy_overhead": round(
                    energy_overhead(result, baseline), 12
                ),
            }
        )
    digest = hashlib.sha256(
        json.dumps(runs, sort_keys=True, separators=(",", ":")).encode(
            "utf-8"
        )
    ).hexdigest()
    return {
        "v": REPORT_VERSION,
        "campaign": spec.to_dict(),
        "runs": runs,
        "sha256": digest,
    }


def render_report(report: Dict[str, Any]) -> str:
    """A compact human rendering of one campaign report."""
    from repro.util.tables import format_table

    rows = [
        [
            run["workload"],
            run["config"],
            f"{run['time_overhead'] * 100.0:.2f}%",
            f"{run['energy_overhead'] * 100.0:.2f}%",
            run["checkpoint_bytes"],
        ]
        for run in report["runs"]
    ]
    table = format_table(
        ["workload", "config", "time ovh", "energy ovh", "ckpt bytes"],
        rows,
        title="campaign report",
    )
    return f"{table}\nreport sha256: {report['sha256'][:16]}…"
