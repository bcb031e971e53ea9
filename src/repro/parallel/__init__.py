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

__all__ = [
    "ParallelSearchParams",
    "FaultPolicy",
    "HealthLedger",
    "WorkerHealth",
    "WorkerDown",
    "SyncMode",
    "SyncPolicy",
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
