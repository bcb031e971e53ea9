"""High-level entry point: run a parallel tabu search on a (simulated) cluster.

This is the main public API of the library::

    from repro import load_benchmark, ParallelSearchParams, run_parallel_search

    netlist = load_benchmark("c532")
    params = ParallelSearchParams(num_tsws=4, clws_per_tsw=2, global_iterations=6)
    result = run_parallel_search(netlist, params)
    print(result.best_cost, result.virtual_runtime)

The runner is domain-agnostic: it accepts any
:class:`~repro.core.protocols.SearchProblem` — the shared, immutable problem
description the master/TSW/CLW processes run against — either directly or
via the legacy placement shorthand (a bare
:class:`~repro.placement.netlist.Netlist`, wrapped into a placement problem
through the domain registry).  A QAP run looks like::

    from repro.core import get_domain
    problem = get_domain("qap").build_problem("rand64")
    result = run_parallel_search(problem=problem, params=params)

Since PR 7 the runner is a thin wrapper over
:class:`~repro.session.SearchSession`: it builds a session, runs it to
completion in a single epoch, and returns the packaged result.  Anything
beyond one-shot runs — pausing, checkpoints, warm worker pools, background
submission — lives on the session API.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Literal, Optional, Tuple

import numpy as np

from ..core.protocols import SearchProblem
from ..errors import ParallelSearchError
from ..pvm.cluster import ClusterSpec
from ..pvm.simulator import ProcessInfo, SimStats
from .config import ParallelSearchParams
from .master import GlobalIterationRecord

__all__ = ["ParallelSearchResult", "run_parallel_search", "build_problem"]

Backend = Literal["simulated", "threads", "processes"]


@dataclass
class ParallelSearchResult:
    """Everything a parallel-tabu-search run produced."""

    #: Name of the problem instance (a circuit for placement, a QAP
    #: instance name otherwise).
    instance: str
    params: ParallelSearchParams
    best_cost: float
    initial_cost: float
    #: Domain-specific crisp objective values of the best solution
    #: (``None`` on a paused, incomplete session result).
    best_objectives: Any
    best_solution: np.ndarray
    #: (virtual time, best cost) trace recorded by the master.
    trace: List[Tuple[float, float]]
    global_records: List[GlobalIterationRecord]
    #: Virtual makespan of the run (wall-clock seconds for the real
    #: threads/processes backends).
    virtual_runtime: float
    sim_stats: Optional[SimStats]
    process_infos: List[ProcessInfo] = field(default_factory=list)
    wall_clock_seconds: float = 0.0
    #: ``False`` when the producing session was paused before all global
    #: iterations finished.
    complete: bool = True
    #: Fault incidents (:class:`~repro.metrics.trace.FaultEvent`) observed
    #: across the producing session's epochs; empty without a fault policy.
    fault_events: List[Any] = field(default_factory=list)

    @property
    def improvement(self) -> float:
        """Relative cost reduction with respect to the initial solution."""
        if self.initial_cost <= 0:
            return 0.0
        return (self.initial_cost - self.best_cost) / self.initial_cost

    def time_to_reach(self, cost_threshold: float) -> Optional[float]:
        """Virtual time at which the best cost first dropped to ``cost_threshold``.

        Returns ``None`` when the run never reached that quality — the
        speedup experiments treat such runs as failures for that threshold.
        """
        for moment, cost in self.trace:
            if cost <= cost_threshold:
                return moment
        return None


def build_problem(
    netlist, params: ParallelSearchParams, *, reference_seed: Optional[int] = None
) -> SearchProblem:
    """Build the shared placement problem for a run (exposed for tests/benchmarks).

    Legacy placement shorthand: wraps a
    :class:`~repro.placement.netlist.Netlist` into the registered placement
    domain.  Other domains build their problems through
    :func:`repro.core.get_domain` directly.
    """
    from ..core.registry import get_domain

    seed = reference_seed if reference_seed is not None else params.seed
    return get_domain("placement").build_problem(
        netlist, cost_params=params.cost, reference_seed=seed
    )


def run_parallel_search(
    netlist=None,
    params: ParallelSearchParams | None = None,
    *,
    cluster: Optional[ClusterSpec] = None,
    backend: Backend = "simulated",
    problem: Optional[SearchProblem] = None,
    join_timeout: float = 3600.0,
) -> ParallelSearchResult:
    """Run the full master/TSW/CLW parallel tabu search.

    Parameters
    ----------
    netlist:
        Circuit to place (legacy placement shorthand), or any
        :class:`~repro.core.protocols.SearchProblem` instance.  May be
        omitted when ``problem`` is given.
    params:
        Parallelisation and search parameters (defaults: 4 TSWs, 1 CLW each).
    cluster:
        Cluster to run on; defaults to the paper's twelve-machine testbed.
    backend:
        ``"simulated"`` (deterministic virtual time; the default used by all
        experiments), ``"threads"`` (real threads, wall-clock time, GIL
        caveats apply) or ``"processes"`` (real OS processes, wall-clock
        time, true multi-core parallelism).
    problem:
        Pre-built problem instance; pass it to share the reference cost
        anchor across several runs of the same instance (as the speedup
        experiments must), or to run a non-placement domain.
    join_timeout:
        One overall wall-clock deadline (seconds) for the whole run on the
        real backends (``"threads"`` / ``"processes"``) — not a per-worker
        allowance.
    """
    from ..errors import SessionError
    from ..session.session import SearchSession

    if backend not in ("simulated", "threads", "processes"):
        raise ParallelSearchError(f"unknown backend {backend!r}")
    try:
        session = SearchSession(
            netlist,
            params,
            problem=problem,
            backend=backend,
            cluster=cluster,
            join_timeout=join_timeout,
        )
    except SessionError as error:
        # keep the runner's historical error type for bad arguments
        raise ParallelSearchError(str(error)) from error
    return session.run()
