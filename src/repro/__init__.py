"""repro — reproduction of "Parallel Tabu Search in a Heterogeneous Environment".

The package implements, from scratch, everything the IPDPS 2003 paper by
Al-Yamani, Sait, Barada and Youssef builds on:

* a domain-agnostic search core — the ``SwapEvaluator``/``SearchProblem``
  protocols and the problem registry (:mod:`repro.core`) with two registered
  domains, cell placement and QAP (:mod:`repro.problems`),
* a VLSI standard-cell placement substrate with a fuzzy multi-objective cost
  (:mod:`repro.placement`, :mod:`repro.fuzzy`),
* a serial tabu-search engine with compound moves, aspiration and
  diversification (:mod:`repro.tabu`),
* a PVM-like message-passing layer over a simulated heterogeneous cluster
  (:mod:`repro.pvm`),
* the paper's parallel tabu search — master / TSW / CLW processes with
  heterogeneity-aware synchronisation (:mod:`repro.parallel`), and
* the experiment harness that regenerates every figure of the evaluation
  (:mod:`repro.experiments`, driven by the ``benchmarks/`` directory).

Quickstart
----------

>>> from repro import load_benchmark, ParallelSearchParams, run_parallel_search
>>> netlist = load_benchmark("c532")
>>> params = ParallelSearchParams(num_tsws=4, clws_per_tsw=2, global_iterations=4)
>>> result = run_parallel_search(netlist, params)
>>> result.best_cost < result.initial_cost
True
"""

from .core import (
    SearchProblem,
    SwapEvaluator,
    available_domains,
    get_domain,
    register_domain,
)
from .errors import (
    ClusterError,
    CostModelError,
    ExperimentError,
    LayoutError,
    NetlistError,
    ParallelSearchError,
    PlacementError,
    ProcessError,
    ReproError,
    SessionError,
    SimulationError,
    TabuSearchError,
)
from .metrics import CostTrace, speedup_curve
from .parallel import (
    FaultPolicy,
    ParallelSearchParams,
    ParallelSearchResult,
    SyncPolicy,
    build_problem,
    classify,
    run_parallel_search,
)
from .placement import (
    CostEvaluator,
    CostModelParams,
    Layout,
    Netlist,
    NetlistBuilder,
    ObjectiveVector,
    Placement,
    load_benchmark,
    paper_benchmarks,
    random_placement,
)
from .problems.placement import PlacementProblem
from .session import (
    SearchSession,
    SessionState,
    WorkerPool,
)
from .pvm import (
    ClusterSpec,
    DrainWorker,
    FaultPlan,
    KillWorker,
    MessageFaults,
    SpawnWorker,
    ThrottleMachine,
    ProcessKernel,
    SimKernel,
    ThreadKernel,
    homogeneous_cluster,
    paper_cluster,
)
from .tabu import TabuSearch, TabuSearchParams, TerminationCriteria

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "SwapEvaluator",
    "SearchProblem",
    "get_domain",
    "register_domain",
    "available_domains",
    # errors
    "ReproError",
    "NetlistError",
    "LayoutError",
    "PlacementError",
    "CostModelError",
    "TabuSearchError",
    "ClusterError",
    "ProcessError",
    "SimulationError",
    "ParallelSearchError",
    "ExperimentError",
    "SessionError",
    # placement
    "Netlist",
    "NetlistBuilder",
    "Layout",
    "Placement",
    "random_placement",
    "CostEvaluator",
    "CostModelParams",
    "ObjectiveVector",
    "load_benchmark",
    "paper_benchmarks",
    # tabu
    "TabuSearch",
    "TabuSearchParams",
    "TerminationCriteria",
    # pvm
    "ClusterSpec",
    "SimKernel",
    "ThreadKernel",
    "ProcessKernel",
    "paper_cluster",
    "homogeneous_cluster",
    "FaultPlan",
    "KillWorker",
    "SpawnWorker",
    "DrainWorker",
    "ThrottleMachine",
    "MessageFaults",
    # parallel
    "ParallelSearchParams",
    "FaultPolicy",
    "ParallelSearchResult",
    "PlacementProblem",
    "SyncPolicy",
    "build_problem",
    "classify",
    "run_parallel_search",
    # session
    "SearchSession",
    "SessionState",
    "WorkerPool",
    # metrics
    "CostTrace",
    "speedup_curve",
]
