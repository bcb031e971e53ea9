"""Parallel tabu search: the paper's primary contribution.

The package provides the three process types of the paper (master, Tabu
Search Workers, Candidate List Workers), the synchronisation policies for
heterogeneous clusters, and :func:`~repro.parallel.runner.run_parallel_search`
— the one-call entry point used by the examples and the benchmark harness.
"""

from .clw import clw_process
from .config import FaultPolicy, ParallelSearchParams, SyncMode
from .health import HealthLedger, WorkerHealth
from .master import GlobalIterationRecord, MasterResult, MasterRunState, master_process
from .messages import (
    ClwResult,
    ClwSummary,
    ClwTask,
    ClwWorkerState,
    GlobalStart,
    ReportNow,
    Tags,
    TswResult,
    TswSummary,
    TswWorkerState,
    WorkerDown,
)
from .runner import ParallelSearchResult, build_problem, run_parallel_search
from .sync import SyncPolicy
from .worker_loop import clw_worker_loop, tsw_worker_loop
from .taxonomy import (
    CommunicationType,
    ControlCardinality,
    ParallelisationStrategy,
    SearchDifferentiation,
    TaxonomyClassification,
    classify,
)
from .tsw import tsw_process


def __getattr__(name):
    # Lazy re-export: ``from repro.parallel import PlacementProblem`` keeps
    # working, but the engine package itself stays free of static
    # problem-domain imports (tests/core/test_import_boundaries.py); the
    # placement domain is imported only when the name is actually used.
    if name == "PlacementProblem":
        from ..problems.placement import PlacementProblem

        return PlacementProblem
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ParallelSearchParams",
    "FaultPolicy",
    "HealthLedger",
    "WorkerHealth",
    "WorkerDown",
    "SyncMode",
    "SyncPolicy",
    "PlacementProblem",
    "ParallelSearchResult",
    "build_problem",
    "run_parallel_search",
    "master_process",
    "tsw_process",
    "clw_process",
    "tsw_worker_loop",
    "clw_worker_loop",
    "MasterResult",
    "MasterRunState",
    "GlobalIterationRecord",
    "TswWorkerState",
    "ClwWorkerState",
    "Tags",
    "GlobalStart",
    "ReportNow",
    "TswResult",
    "TswSummary",
    "ClwTask",
    "ClwResult",
    "ClwSummary",
    "CommunicationType",
    "ControlCardinality",
    "ParallelisationStrategy",
    "SearchDifferentiation",
    "TaxonomyClassification",
    "classify",
]
