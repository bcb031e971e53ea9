"""Regeneration of every figure of the paper's evaluation (Figures 5–11).

Each ``figN_*`` function runs the corresponding experiment on the simulated
heterogeneous cluster and returns a :class:`FigureResult` holding both the raw
data and a formatted text rendition of the series the paper plots.  The
benchmark harness (``benchmarks/``) calls these functions — one per figure —
prints their output and writes it to ``benchmarks/results/<figure>.txt``; CI
runs all seven at quick scale and uploads those files as the
``figure-results`` artifact.

All functions accept an :class:`~repro.experiments.harness.ExperimentScale`
(defaulting to the scale selected by ``REPRO_EXPERIMENT_SCALE``) and a seed so
the runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..metrics.report import format_table
from ..metrics.speedup import SpeedupPoint, speedup_curve
from ..metrics.trace import CostTrace
from ..parallel.runner import ParallelSearchResult
from ..pvm.cluster import paper_cluster
from .harness import (
    ExperimentScale,
    circuits_for_scale,
    current_scale,
    params_for_circuit,
    run_configuration,
    trace_of,
)

__all__ = [
    "FigureResult",
    "fig5_clw_quality",
    "fig6_clw_speedup",
    "fig7_tsw_quality",
    "fig8_tsw_speedup",
    "fig9_diversification",
    "fig10_local_vs_global",
    "fig11_heterogeneity",
    "ALL_FIGURES",
]


@dataclass
class FigureResult:
    """Raw data plus formatted text for one reproduced figure."""

    figure_id: str
    title: str
    scale: str
    data: Dict[str, object] = field(default_factory=dict)
    tables: Dict[str, str] = field(default_factory=dict)

    def format(self) -> str:
        """Human-readable rendition of every panel of the figure."""
        header = f"=== {self.figure_id}: {self.title} (scale: {self.scale}) ==="
        parts = [header]
        for name in sorted(self.tables):
            parts.append(self.tables[name])
        return "\n\n".join(parts)


# --------------------------------------------------------------------------- #
# Figure 5 — effect of the number of CLWs on solution quality
# --------------------------------------------------------------------------- #
def fig5_clw_quality(
    *,
    scale: Optional[ExperimentScale] = None,
    circuits: Optional[Sequence[str]] = None,
    clw_counts: Sequence[int] = (1, 2, 3, 4),
    num_tsws: int = 4,
    seed: int = 2003,
) -> FigureResult:
    """Best solution quality versus the number of CLWs (Figure 5).

    The paper fixes 4 TSWs, sweeps 1–4 CLWs per TSW on all four circuits and
    reports the best cost of each run.
    """
    scale = scale or current_scale()
    names = circuits_for_scale(scale, circuits)
    result = FigureResult(
        figure_id="fig5", title="Effect of number of CLWs on solution quality", scale=scale.name
    )
    quality: Dict[str, Dict[int, float]] = {}
    for circuit in names:
        per_circuit: Dict[int, float] = {}
        for clws in clw_counts:
            params = params_for_circuit(
                circuit, scale, num_tsws=num_tsws, clws_per_tsw=clws, seed=seed
            )
            run = run_configuration(circuit, params)
            per_circuit[int(clws)] = run.best_cost
        quality[circuit] = per_circuit
        result.tables[circuit] = format_table(
            ["CLWs per TSW", "best cost"],
            sorted(per_circuit.items()),
            title=f"{circuit}: best cost vs number of CLWs (TSWs={num_tsws})",
        )
    result.data["quality"] = quality
    result.data["clw_counts"] = tuple(int(c) for c in clw_counts)
    return result


# --------------------------------------------------------------------------- #
# Figure 6 — speedup to a quality target versus the number of CLWs
# --------------------------------------------------------------------------- #
def fig6_clw_speedup(
    *,
    scale: Optional[ExperimentScale] = None,
    circuits: Optional[Sequence[str]] = None,
    clw_counts: Sequence[int] = (1, 2, 3, 4),
    num_tsws: int = 4,
    seed: int = 2003,
) -> FigureResult:
    """Speedup in reaching a quality target versus the number of CLWs (Figure 6).

    Speedup is the paper's non-deterministic-algorithm definition:
    ``t(1, x) / t(n, x)`` with ``x`` chosen so every configuration reaches it.
    The paper shows two circuits; we default to the two mid-size ones.
    """
    scale = scale or current_scale()
    default_circuits = ("c532", "c1355")
    names = circuits_for_scale(scale, circuits or default_circuits)
    result = FigureResult(
        figure_id="fig6",
        title="Speedup to reach a quality target vs number of CLWs",
        scale=scale.name,
    )
    curves: Dict[str, List[SpeedupPoint]] = {}
    for circuit in names:
        traces: Dict[int, CostTrace] = {}
        # Every configuration shares the problem instance (and therefore the
        # reference cost) so the costs — and the quality target — are
        # directly comparable across runs.
        base_params = params_for_circuit(
            circuit, scale, num_tsws=num_tsws, clws_per_tsw=1, seed=seed
        )
        from ..parallel.runner import build_problem
        from ..placement.iscas import load_benchmark

        problem = build_problem(load_benchmark(circuit), base_params)
        for clws in clw_counts:
            params = params_for_circuit(
                circuit, scale, num_tsws=num_tsws, clws_per_tsw=clws, seed=seed
            )
            run = run_configuration(circuit, params, problem=problem)
            traces[int(clws)] = trace_of(run, label=f"{circuit}/clw{clws}")
        points = speedup_curve(traces, baseline_workers=min(clw_counts))
        curves[circuit] = points
        result.tables[circuit] = format_table(
            ["CLWs per TSW", "time to x", "speedup"],
            [(p.workers, p.time, p.speedup) for p in points],
            title=(
                f"{circuit}: speedup reaching cost <= {points[0].threshold:.4f} "
                f"(TSWs={num_tsws})"
            ),
        )
    result.data["curves"] = curves
    return result


# --------------------------------------------------------------------------- #
# Figure 7 — effect of the number of TSWs on solution quality
# --------------------------------------------------------------------------- #
def fig7_tsw_quality(
    *,
    scale: Optional[ExperimentScale] = None,
    circuits: Optional[Sequence[str]] = None,
    tsw_counts: Sequence[int] = (1, 2, 3, 4, 5, 6, 7, 8),
    seed: int = 2003,
) -> FigureResult:
    """Best solution quality versus the number of TSWs (Figure 7).

    One CLW per TSW, 1–8 TSWs, all circuits.
    """
    scale = scale or current_scale()
    names = circuits_for_scale(scale, circuits)
    result = FigureResult(
        figure_id="fig7", title="Effect of number of TSWs on solution quality", scale=scale.name
    )
    quality: Dict[str, Dict[int, float]] = {}
    for circuit in names:
        per_circuit: Dict[int, float] = {}
        for tsws in tsw_counts:
            params = params_for_circuit(
                circuit, scale, num_tsws=tsws, clws_per_tsw=1, seed=seed
            )
            run = run_configuration(circuit, params)
            per_circuit[int(tsws)] = run.best_cost
        quality[circuit] = per_circuit
        result.tables[circuit] = format_table(
            ["TSWs", "best cost"],
            sorted(per_circuit.items()),
            title=f"{circuit}: best cost vs number of TSWs (CLWs per TSW = 1)",
        )
    result.data["quality"] = quality
    result.data["tsw_counts"] = tuple(int(c) for c in tsw_counts)
    return result


# --------------------------------------------------------------------------- #
# Figure 8 — speedup to a quality target versus the number of TSWs
# --------------------------------------------------------------------------- #
def fig8_tsw_speedup(
    *,
    scale: Optional[ExperimentScale] = None,
    circuits: Optional[Sequence[str]] = None,
    tsw_counts: Sequence[int] = (1, 2, 4, 6, 8),
    seed: int = 2003,
) -> FigureResult:
    """Speedup in reaching a quality target versus the number of TSWs (Figure 8)."""
    scale = scale or current_scale()
    default_circuits = ("c532", "c3540")
    names = circuits_for_scale(scale, circuits or default_circuits)
    result = FigureResult(
        figure_id="fig8",
        title="Speedup to reach a quality target vs number of TSWs",
        scale=scale.name,
    )
    curves: Dict[str, List[SpeedupPoint]] = {}
    for circuit in names:
        from ..parallel.runner import build_problem
        from ..placement.iscas import load_benchmark

        base_params = params_for_circuit(circuit, scale, num_tsws=1, clws_per_tsw=1, seed=seed)
        problem = build_problem(load_benchmark(circuit), base_params)
        traces: Dict[int, CostTrace] = {}
        for tsws in tsw_counts:
            params = params_for_circuit(
                circuit, scale, num_tsws=tsws, clws_per_tsw=1, seed=seed
            )
            run = run_configuration(circuit, params, problem=problem)
            traces[int(tsws)] = trace_of(run, label=f"{circuit}/tsw{tsws}")
        points = speedup_curve(traces, baseline_workers=min(tsw_counts))
        curves[circuit] = points
        result.tables[circuit] = format_table(
            ["TSWs", "time to x", "speedup"],
            [(p.workers, p.time, p.speedup) for p in points],
            title=f"{circuit}: speedup reaching cost <= {points[0].threshold:.4f} (1 CLW per TSW)",
        )
    result.data["curves"] = curves
    return result


# --------------------------------------------------------------------------- #
# Figure 9 — effect of diversification
# --------------------------------------------------------------------------- #
def fig9_diversification(
    *,
    scale: Optional[ExperimentScale] = None,
    circuits: Optional[Sequence[str]] = None,
    num_tsws: int = 4,
    seed: int = 2003,
) -> FigureResult:
    """Diversified versus non-diversified runs (Figure 9).

    Four TSWs, one CLW each; the only difference between the two runs of each
    circuit is whether TSWs perform the range-restricted diversification step
    at the start of every global iteration.
    """
    scale = scale or current_scale()
    names = circuits_for_scale(scale, circuits)
    result = FigureResult(
        figure_id="fig9", title="Effect of diversification", scale=scale.name
    )
    data: Dict[str, Dict[str, object]] = {}
    for circuit in names:
        runs: Dict[str, ParallelSearchResult] = {}
        for label, diversify in (("diversified", True), ("non-diversified", False)):
            params = params_for_circuit(
                circuit, scale, num_tsws=num_tsws, clws_per_tsw=1,
                diversify=diversify, seed=seed,
            )
            runs[label] = run_configuration(circuit, params)
        data[circuit] = {
            "best_costs": {k: v.best_cost for k, v in runs.items()},
            "traces": {k: v.trace for k, v in runs.items()},
        }
        rows = []
        for label, run in runs.items():
            rows.append((label, run.initial_cost, run.best_cost, run.improvement))
        result.tables[circuit] = format_table(
            ["run", "initial cost", "best cost", "improvement"],
            rows,
            title=f"{circuit}: diversified vs non-diversified (TSWs={num_tsws}, 1 CLW)",
        )
    result.data["per_circuit"] = data
    return result


# --------------------------------------------------------------------------- #
# Figure 10 — local versus global iterations
# --------------------------------------------------------------------------- #
def fig10_local_vs_global(
    *,
    scale: Optional[ExperimentScale] = None,
    circuits: Optional[Sequence[str]] = None,
    num_tsws: int = 4,
    seed: int = 2003,
    combinations: Optional[Sequence[Tuple[int, int]]] = None,
) -> FigureResult:
    """Trade-off between global and local iterations (Figure 10).

    The total number of TS iterations (global × local) is held constant while
    their split varies: many short global rounds (much diversification, little
    local investigation) versus few long rounds.
    """
    scale = scale or current_scale()
    names = circuits_for_scale(scale, circuits)
    total = scale.global_iterations * scale.local_iterations * 2
    if combinations is None:
        combinations = []
        for global_iters in (2, 3, 4, 6):
            local_iters = max(1, total // global_iters)
            combinations.append((global_iters, local_iters))
    result = FigureResult(
        figure_id="fig10", title="Local versus global iterations", scale=scale.name
    )
    data: Dict[str, Dict[Tuple[int, int], float]] = {}
    for circuit in names:
        per_circuit: Dict[Tuple[int, int], float] = {}
        for global_iters, local_iters in combinations:
            params = params_for_circuit(
                circuit,
                scale,
                num_tsws=num_tsws,
                clws_per_tsw=1,
                global_iterations=global_iters,
                local_iterations=local_iters,
                seed=seed,
            )
            run = run_configuration(circuit, params)
            per_circuit[(global_iters, local_iters)] = run.best_cost
        data[circuit] = per_circuit
        result.tables[circuit] = format_table(
            ["global iters", "local iters", "best cost"],
            [(g, l, c) for (g, l), c in sorted(per_circuit.items())],
            title=f"{circuit}: constant total work, varying global/local split",
        )
    result.data["per_circuit"] = data
    result.data["combinations"] = tuple(combinations)
    return result


# --------------------------------------------------------------------------- #
# Figure 11 — accounting for heterogeneity
# --------------------------------------------------------------------------- #
def fig11_heterogeneity(
    *,
    scale: Optional[ExperimentScale] = None,
    circuits: Optional[Sequence[str]] = None,
    num_tsws: int = 4,
    clws_per_tsw: int = 4,
    seed: int = 2003,
) -> FigureResult:
    """Heterogeneous versus homogeneous synchronisation (Figure 11).

    Both runs use 4 TSWs × 4 CLWs on the paper's twelve-machine cluster
    (7 fast / 3 medium / 2 slow).  The heterogeneous run interrupts the slow
    half of the children; the homogeneous run waits for everyone.  The figure
    plots best cost versus (virtual) runtime.
    """
    scale = scale or current_scale()
    default_circuits = tuple(scale.circuits[1:]) or scale.circuits
    names = circuits_for_scale(scale, circuits or default_circuits)
    cluster = paper_cluster()
    result = FigureResult(
        figure_id="fig11",
        title="Best cost vs runtime: heterogeneous vs homogeneous synchronisation",
        scale=scale.name,
    )
    data: Dict[str, Dict[str, object]] = {}
    for circuit in names:
        from ..parallel.runner import build_problem
        from ..placement.iscas import load_benchmark

        base_params = params_for_circuit(
            circuit, scale, num_tsws=num_tsws, clws_per_tsw=clws_per_tsw, seed=seed
        )
        problem = build_problem(load_benchmark(circuit), base_params)
        runs: Dict[str, ParallelSearchResult] = {}
        for mode in ("heterogeneous", "homogeneous"):
            params = params_for_circuit(
                circuit,
                scale,
                num_tsws=num_tsws,
                clws_per_tsw=clws_per_tsw,
                sync_mode=mode,
                seed=seed,
            )
            runs[mode] = run_configuration(circuit, params, cluster=cluster, problem=problem)
        data[circuit] = {
            "runtimes": {k: v.virtual_runtime for k, v in runs.items()},
            "best_costs": {k: v.best_cost for k, v in runs.items()},
            "traces": {k: v.trace for k, v in runs.items()},
        }
        rows = []
        for mode, run in runs.items():
            rows.append((mode, run.virtual_runtime, run.best_cost, run.improvement))
        result.tables[circuit] = format_table(
            ["sync mode", "virtual runtime (s)", "best cost", "improvement"],
            rows,
            title=(
                f"{circuit}: heterogeneous vs homogeneous sync "
                f"({num_tsws} TSWs x {clws_per_tsw} CLWs, 12-machine cluster)"
            ),
        )
    result.data["per_circuit"] = data
    return result


#: Registry used by the benchmark harness and the examples.
ALL_FIGURES = {
    "fig5": fig5_clw_quality,
    "fig6": fig6_clw_speedup,
    "fig7": fig7_tsw_quality,
    "fig8": fig8_tsw_speedup,
    "fig9": fig9_diversification,
    "fig10": fig10_local_vs_global,
    "fig11": fig11_heterogeneity,
}
