"""Paper figure generators (Figs. 1, 6–13 and §V-D4 scalability).

Each generator takes an :class:`~repro.experiments.runner.ExperimentRunner`
(runs are memoised, so generators share work), returns a
:class:`FigureResult` carrying both the raw series and a rendered ASCII
table, and documents which paper claim it reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.energy.edp import combined_edp_reduction
from repro.energy.technology import component_error_rate_series
from repro.experiments.configs import ConfigRequest
from repro.experiments.runner import ExperimentRunner
from repro.sim.results import energy_overhead, time_overhead
from repro.util.tables import format_table

__all__ = [
    "FigureResult",
    "fig1_error_rate",
    "fig6_time_overhead",
    "fig7_energy_overhead",
    "fig8_edp_reduction",
    "fig9_checkpoint_size",
    "fig10_temporal",
    "fig11_error_sweep",
    "fig12_frequency_sweep",
    "fig13_local",
    "scalability",
]


@dataclass
class FigureResult:
    """One reproduced figure: raw series plus a rendered table."""

    name: str
    headers: List[str]
    rows: List[List[object]]
    series: Dict[str, object] = field(default_factory=dict)
    notes: str = ""

    def render(self) -> str:
        """ASCII rendering, ready to print."""
        out = format_table(self.headers, self.rows, title=self.name)
        if self.notes:
            out += "\n" + self.notes
        return out


def _pct(x: float) -> float:
    return round(100.0 * x, 2)


def _overhead_reduction(
    runner: ExperimentRunner, wl: str, base_cfg: str, acr_cfg: str,
    metric, **kw,
) -> tuple:
    base = runner.baseline(wl)
    ck = runner.run_default(wl, base_cfg, **kw)
    re = runner.run_default(wl, acr_cfg, **kw)
    o_ck = metric(ck, base)
    o_re = metric(re, base)
    red = 1.0 - o_re / o_ck if o_ck > 0 else 0.0
    return o_ck, o_re, red


# --------------------------------------------------------------------- Fig 1
def fig1_error_rate() -> FigureResult:
    """Fig. 1: relative component error rate across technology nodes."""
    series = component_error_rate_series()
    rows = [[node, rate] for node, rate in series]
    return FigureResult(
        name="Figure 1: relative component error rate (8%/bit/generation)",
        headers=["node (nm)", "relative rate"],
        rows=rows,
        series={"nodes": [n for n, _ in series], "rates": [r for _, r in series]},
    )


# ----------------------------------------------------------------- Figs 6/7
def _overhead_figure(runner: ExperimentRunner, metric, label: str) -> FigureResult:
    rows = []
    series: Dict[str, Dict[str, float]] = {}
    reductions_ne, reductions_e = [], []
    for wl in runner.workloads():
        base = runner.baseline(wl)
        values = {}
        for cfg in ("Ckpt_NE", "Ckpt_E", "ReCkpt_NE", "ReCkpt_E"):
            values[cfg] = metric(runner.run_default(wl, cfg), base)
        red_ne = 1 - values["ReCkpt_NE"] / values["Ckpt_NE"]
        red_e = 1 - values["ReCkpt_E"] / values["Ckpt_E"]
        reductions_ne.append(red_ne)
        reductions_e.append(red_e)
        series[wl] = dict(values)
        rows.append(
            [
                wl,
                _pct(values["Ckpt_NE"]),
                _pct(values["Ckpt_E"]),
                _pct(values["ReCkpt_NE"]),
                _pct(values["ReCkpt_E"]),
                _pct(red_ne),
                _pct(red_e),
            ]
        )
    avg_ne = sum(reductions_ne) / len(reductions_ne)
    avg_e = sum(reductions_e) / len(reductions_e)
    return FigureResult(
        name=label,
        headers=[
            "bench",
            "Ckpt_NE %",
            "Ckpt_E %",
            "ReCkpt_NE %",
            "ReCkpt_E %",
            "red NE %",
            "red E %",
        ],
        rows=rows,
        series=series,
        notes=(
            f"average ACR reduction: NE {_pct(avg_ne)}%  E {_pct(avg_e)}%"
        ),
    )


def fig6_time_overhead(runner: ExperimentRunner) -> FigureResult:
    """Fig. 6: execution-time overhead of checkpointing and recovery.

    Paper: ReCkpt_NE cuts Ckpt_NE's time overhead by up to 28.81% (is),
    11.92% on average, minimum 2.12% (cg).
    """
    return _overhead_figure(
        runner, time_overhead, "Figure 6: time overhead w.r.t. NoCkpt"
    )


def fig7_energy_overhead(runner: ExperimentRunner) -> FigureResult:
    """Fig. 7: energy overhead (paper: up to 26.93% / avg 12.53% NE)."""
    return _overhead_figure(
        runner, energy_overhead, "Figure 7: energy overhead w.r.t. NoCkpt"
    )


# --------------------------------------------------------------------- Fig 8
def fig8_edp_reduction(runner: ExperimentRunner) -> FigureResult:
    """Fig. 8: overhead-EDP reduction of ReCkpt w.r.t. Ckpt.

    Paper: NE up to 47.98% (is) avg 22.47%; E up to 48.07% (dc) avg
    23.41%.  The published numbers compose the time and energy overhead
    reductions multiplicatively, which is what we report.
    """
    rows = []
    series = {}
    totals = {"NE": [], "E": []}
    for wl in runner.workloads():
        _, _, rt_ne = _overhead_reduction(
            runner, wl, "Ckpt_NE", "ReCkpt_NE", time_overhead
        )
        _, _, re_ne = _overhead_reduction(
            runner, wl, "Ckpt_NE", "ReCkpt_NE", energy_overhead
        )
        _, _, rt_e = _overhead_reduction(
            runner, wl, "Ckpt_E", "ReCkpt_E", time_overhead
        )
        _, _, re_e = _overhead_reduction(
            runner, wl, "Ckpt_E", "ReCkpt_E", energy_overhead
        )
        edp_ne = combined_edp_reduction(rt_ne, re_ne)
        edp_e = combined_edp_reduction(rt_e, re_e)
        totals["NE"].append(edp_ne)
        totals["E"].append(edp_e)
        series[wl] = {"NE": edp_ne, "E": edp_e}
        rows.append([wl, _pct(edp_ne), _pct(edp_e)])
    return FigureResult(
        name="Figure 8: EDP reduction of ReCkpt w.r.t. Ckpt",
        headers=["bench", "ReCkpt_NE %", "ReCkpt_E %"],
        rows=rows,
        series=series,
        notes=(
            f"average: NE {_pct(sum(totals['NE']) / len(totals['NE']))}%  "
            f"E {_pct(sum(totals['E']) / len(totals['E']))}%"
        ),
    )


# --------------------------------------------------------------------- Fig 9
def fig9_checkpoint_size(runner: ExperimentRunner) -> FigureResult:
    """Fig. 9: checkpoint-size reduction, Overall vs Max.

    Paper: overall up to 75.74% (is), average 38.31%; Max up to 58.3%
    (dc), ~0 for is (2.04%) and ft (0.05%).
    """
    rows = []
    series = {}
    overalls = []
    for wl in runner.workloads():
        ck = runner.run_default(wl, "Ckpt_NE")
        re = runner.run_default(wl, "ReCkpt_NE")
        overall = 1 - re.total_checkpoint_bytes / ck.total_checkpoint_bytes
        mx = 1 - re.max_checkpoint_bytes / ck.max_checkpoint_bytes
        overalls.append(overall)
        series[wl] = {"overall": overall, "max": mx}
        rows.append([wl, _pct(overall), _pct(mx)])
    return FigureResult(
        name="Figure 9: checkpoint size reduction under ReCkpt_NE",
        headers=["bench", "Overall %", "Max %"],
        rows=rows,
        series=series,
        notes=f"average overall: {_pct(sum(overalls) / len(overalls))}%",
    )


# -------------------------------------------------------------------- Fig 10
def fig10_temporal(
    runner: ExperimentRunner,
    workload: str = "bt",
    thresholds: Sequence[int] = (10, 20, 30, 40, 50),
) -> FigureResult:
    """Fig. 10: per-interval checkpoint-size reduction over time (bt).

    Paper: the reduction varies across intervals, motivating
    recomputation-aware checkpoint placement (future work — see
    :mod:`repro.experiments.placement`).
    """
    series: Dict[str, List[float]] = {}
    for thr in thresholds:
        run = runner.run(workload, ConfigRequest("ReCkpt_NE", threshold=thr))
        series[f"thr{thr}"] = run.interval_reductions()
    n_intervals = len(next(iter(series.values())))
    rows = []
    for k in range(n_intervals):
        rows.append([k] + [_pct(series[f"thr{t}"][k]) for t in thresholds])
    return FigureResult(
        name=f"Figure 10: per-interval ckpt size reduction over time ({workload})",
        headers=["interval"] + [f"thr={t} %" for t in thresholds],
        rows=rows,
        series=series,
    )


# -------------------------------------------------------------------- Fig 11
def fig11_error_sweep(
    runner: ExperimentRunner, error_counts: Sequence[int] = (1, 2, 3, 4, 5)
) -> FigureResult:
    """Fig. 11: time overhead vs number of errors.

    Paper: overhead grows with errors; ReCkpt_E stays below Ckpt_E with
    average time-overhead reductions between ~9% and ~12% across error
    rates; EDP reductions between ~18% and ~24%.
    """
    rows = []
    series: Dict[str, Dict[int, Dict[str, float]]] = {}
    for wl in runner.workloads():
        base = runner.baseline(wl)
        per_wl = {}
        row = [wl]
        for n in error_counts:
            ck = runner.run_default(wl, "Ckpt_E", error_count=n)
            re = runner.run_default(wl, "ReCkpt_E", error_count=n)
            o_ck = time_overhead(ck, base)
            o_re = time_overhead(re, base)
            per_wl[n] = {"Ckpt_E": o_ck, "ReCkpt_E": o_re}
            row.extend([_pct(o_ck), _pct(o_re)])
        series[wl] = per_wl
        rows.append(row)
    headers = ["bench"]
    for n in error_counts:
        headers.extend([f"Ckpt {n}e %", f"ReCkpt {n}e %"])
    return FigureResult(
        name="Figure 11: time overhead vs number of errors",
        headers=headers,
        rows=rows,
        series=series,
    )


# -------------------------------------------------------------------- Fig 12
def fig12_frequency_sweep(
    runner: ExperimentRunner, counts: Sequence[int] = (25, 50, 75, 100)
) -> FigureResult:
    """Fig. 12: time overhead vs number of checkpoints (error-free).

    Paper: overhead grows with checkpoint count; ReCkpt_NE reduces it at
    every count (avg ~10–14%).
    """
    rows = []
    series: Dict[str, Dict[int, Dict[str, float]]] = {}
    for wl in runner.workloads():
        base = runner.baseline(wl)
        per_wl = {}
        row = [wl]
        for n in counts:
            ck = runner.run_default(wl, "Ckpt_NE", num_checkpoints=n)
            re = runner.run_default(wl, "ReCkpt_NE", num_checkpoints=n)
            o_ck = time_overhead(ck, base)
            o_re = time_overhead(re, base)
            per_wl[n] = {"Ckpt_NE": o_ck, "ReCkpt_NE": o_re}
            row.extend([_pct(o_ck), _pct(o_re)])
        series[wl] = per_wl
        rows.append(row)
    headers = ["bench"]
    for n in counts:
        headers.extend([f"Ckpt {n}ck %", f"ReCkpt {n}ck %"])
    return FigureResult(
        name="Figure 12: time overhead vs number of checkpoints",
        headers=headers,
        rows=rows,
        series=series,
    )


# -------------------------------------------------------------------- Fig 13
def fig13_local(runner: ExperimentRunner) -> FigureResult:
    """Fig. 13: normalized execution time of local vs global schemes.

    Paper: bt/cg/sp (all-to-all communicators) gain nothing; ft/is/mg/dc
    gain the most under Ckpt_NE_Loc; the gap shrinks for the ReCkpt and
    error variants.
    """
    pairs = (
        ("Ckpt_NE_Loc", "Ckpt_NE"),
        ("Ckpt_E_Loc", "Ckpt_E"),
        ("ReCkpt_NE_Loc", "ReCkpt_NE"),
        ("ReCkpt_E_Loc", "ReCkpt_E"),
    )
    rows = []
    series: Dict[str, Dict[str, float]] = {}
    for wl in runner.workloads():
        row = [wl]
        per_wl = {}
        for local_cfg, global_cfg in pairs:
            local = runner.run_default(wl, local_cfg)
            glob = runner.run_default(wl, global_cfg)
            norm = local.wall_ns / glob.wall_ns
            per_wl[local_cfg] = norm
            row.append(round(norm, 3))
        series[wl] = per_wl
        rows.append(row)
    return FigureResult(
        name="Figure 13: normalized execution time, local / global",
        headers=["bench"] + [p[0] for p in pairs],
        rows=rows,
        series=series,
        notes="< 1.0 means coordinated local checkpointing is faster.",
    )


# -------------------------------------------------------------- Scalability
def scalability(
    core_counts: Sequence[int] = (8, 16, 32),
    region_scale: float = 1.0,
    reps: Optional[int] = None,
    workloads: Optional[Sequence[str]] = None,
) -> FigureResult:
    """§V-D4: checkpointing overhead and ACR reduction vs thread count.

    Paper: average Ckpt_NE overhead ≈45/55/60% at 8/16/32 threads, never
    below 9%; ReCkpt_NE reductions up to 28.81/17.78/19.12%.
    """
    rows = []
    series: Dict[int, Dict[str, Dict[str, float]]] = {}
    for cores in core_counts:
        runner = ExperimentRunner(
            num_cores=cores, region_scale=region_scale, reps=reps
        )
        names = list(workloads) if workloads else runner.workloads()
        per_cores = {}
        overheads = []
        for wl in names:
            base = runner.baseline(wl)
            ck = runner.run_default(wl, "Ckpt_NE")
            re = runner.run_default(wl, "ReCkpt_NE")
            o_ck = time_overhead(ck, base)
            o_re = time_overhead(re, base)
            red = 1 - o_re / o_ck if o_ck > 0 else 0.0
            per_cores[wl] = {"Ckpt_NE": o_ck, "ReCkpt_NE": o_re, "red": red}
            overheads.append(o_ck)
            rows.append([cores, wl, _pct(o_ck), _pct(o_re), _pct(red)])
        series[cores] = per_cores
        rows.append(
            [cores, "AVG", _pct(sum(overheads) / len(overheads)), "", ""]
        )
    return FigureResult(
        name="Scalability (V-D4): checkpoint overhead vs thread count",
        headers=["cores", "bench", "Ckpt_NE %", "ReCkpt_NE %", "red %"],
        rows=rows,
        series=series,
    )
