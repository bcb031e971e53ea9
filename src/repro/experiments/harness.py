"""Shared experiment infrastructure: scales, parameter presets and run helpers.

Every figure of the paper is regenerated by a function in
:mod:`repro.experiments.figures`.  Those functions share the helpers defined
here:

* :class:`ExperimentScale` — how much work to spend.  The paper's runs took
  minutes to hours on a 2003 workstation LAN; the benchmark harness defaults
  to a ``quick`` scale that preserves the qualitative shape of every figure
  while keeping the whole suite to a few minutes.  Set the environment
  variable ``REPRO_EXPERIMENT_SCALE=full`` to run the larger configuration.
* :func:`params_for_circuit` — parallel-search parameters sized to a circuit.
* :func:`run_configuration` — one parallel run returning the
  :class:`~repro.metrics.trace.CostTrace` the figures consume.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..errors import ExperimentError
from ..metrics.trace import CostTrace
from ..parallel.config import ParallelSearchParams
from ..problems.placement import PlacementProblem
from ..parallel.runner import ParallelSearchResult, run_parallel_search
from ..placement.iscas import PAPER_CIRCUITS, load_benchmark
from ..pvm.cluster import ClusterSpec, paper_cluster
from ..tabu.params import TabuSearchParams

__all__ = [
    "ExperimentScale",
    "QUICK_SCALE",
    "FULL_SCALE",
    "current_scale",
    "params_for_circuit",
    "run_configuration",
    "trace_of",
    "circuits_for_scale",
]

#: Environment variable selecting the experiment scale.
SCALE_ENV_VAR = "REPRO_EXPERIMENT_SCALE"


@dataclass(frozen=True, slots=True)
class ExperimentScale:
    """How much work the experiment harness spends per run."""

    name: str
    global_iterations: int
    local_iterations: int
    pairs_per_step: int
    move_depth: int
    #: Circuits included when an experiment sweeps "all paper circuits".
    circuits: Tuple[str, ...]

    def __post_init__(self) -> None:
        if self.global_iterations < 1 or self.local_iterations < 1:
            raise ExperimentError("iteration counts must be >= 1")
        if self.pairs_per_step < 1 or self.move_depth < 1:
            raise ExperimentError("pairs_per_step and move_depth must be >= 1")
        if not self.circuits:
            raise ExperimentError("an experiment scale must include at least one circuit")


#: Default scale: keeps the full benchmark suite to a few minutes while all
#: qualitative effects (parallelisation benefit, diversification benefit,
#: heterogeneous-sync speedup) remain visible.
QUICK_SCALE = ExperimentScale(
    name="quick",
    global_iterations=4,
    local_iterations=8,
    pairs_per_step=5,
    move_depth=3,
    circuits=("highway", "c532", "c1355", "c3540"),
)

#: Larger runs, closer to the paper's effort; several tens of minutes.
FULL_SCALE = ExperimentScale(
    name="full",
    global_iterations=8,
    local_iterations=15,
    pairs_per_step=8,
    move_depth=4,
    circuits=PAPER_CIRCUITS,
)

_SCALES: Dict[str, ExperimentScale] = {"quick": QUICK_SCALE, "full": FULL_SCALE}


def current_scale() -> ExperimentScale:
    """The scale selected by ``REPRO_EXPERIMENT_SCALE`` (default: quick)."""
    name = os.environ.get(SCALE_ENV_VAR, "quick").strip().lower()
    if name not in _SCALES:
        known = ", ".join(sorted(_SCALES))
        raise ExperimentError(f"unknown experiment scale {name!r}; known scales: {known}")
    return _SCALES[name]


def circuits_for_scale(
    scale: ExperimentScale, circuits: Optional[Sequence[str]] = None
) -> Tuple[str, ...]:
    """Circuit names an experiment should sweep at the given scale."""
    return tuple(circuits) if circuits is not None else scale.circuits


def params_for_circuit(
    circuit: str,
    scale: ExperimentScale,
    *,
    num_tsws: int = 4,
    clws_per_tsw: int = 1,
    sync_mode: str = "heterogeneous",
    diversify: bool = True,
    global_iterations: Optional[int] = None,
    local_iterations: Optional[int] = None,
    seed: int = 2003,
) -> ParallelSearchParams:
    """Parallel-search parameters for one circuit at one scale."""
    netlist = load_benchmark(circuit)
    tabu = TabuSearchParams(
        local_iterations=local_iterations or scale.local_iterations,
        pairs_per_step=scale.pairs_per_step,
        move_depth=scale.move_depth,
    ).scaled_for_circuit(netlist.num_cells)
    return ParallelSearchParams(
        num_tsws=num_tsws,
        clws_per_tsw=clws_per_tsw,
        global_iterations=global_iterations or scale.global_iterations,
        sync_mode=sync_mode,  # type: ignore[arg-type]
        diversify=diversify,
        tabu=tabu,
        seed=seed,
    )


def run_configuration(
    circuit: str,
    params: ParallelSearchParams,
    *,
    cluster: Optional[ClusterSpec] = None,
    problem: Optional[PlacementProblem] = None,
) -> ParallelSearchResult:
    """Run one parallel-search configuration on the (default: paper) cluster."""
    netlist = load_benchmark(circuit)
    return run_parallel_search(
        netlist,
        params,
        cluster=cluster or paper_cluster(),
        problem=problem,
    )


def trace_of(result: ParallelSearchResult, label: str = "") -> CostTrace:
    """The master's best-cost-versus-virtual-time trace of a run."""
    return CostTrace.from_pairs(result.trace, label=label or result.instance)
