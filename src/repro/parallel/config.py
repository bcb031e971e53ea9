"""Configuration of the parallel tabu search (PTS)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Literal, Optional

from ..errors import ParallelSearchError
from ..tabu.params import TabuSearchParams

__all__ = ["SyncMode", "FaultPolicy", "ParallelSearchParams"]

#: Synchronisation strategy between a parent and its children.
SyncMode = Literal["heterogeneous", "homogeneous"]


@dataclass(frozen=True, slots=True)
class FaultPolicy:
    """How the master survives and adapts to worker failure mid-run.

    With a policy set the master (and each TSW, toward its CLWs) tracks
    per-worker report deadlines and death notices instead of trusting every
    worker to answer: a worker that misses ``max_missed_deadlines + 1``
    deadlines — or whose backend reports it dead — is declared dead, its
    candidate range is re-partitioned across the survivors (weighted by
    observed throughput once every survivor has reported), its resident
    solution state is re-shipped through the existing delta/NACK path, and
    the run completes with degraded parallelism instead of raising.  The
    throughput and limplock constants live in :mod:`repro.parallel.health`.

    Attributes
    ----------
    round_deadline:
        Seconds the master waits for one TSW report per global round
        (virtual seconds on the simulated backend, wall-clock on the real
        ones).  A missed deadline triggers a full re-send; repeated misses
        kill the worker.
    clw_deadline:
        Seconds a TSW waits for one CLW result per local iteration.
    max_missed_deadlines:
        How many missed deadlines are forgiven (with a re-send) before a
        worker is declared dead; ``0`` kills on the first miss.
    """

    round_deadline: float = 30.0
    clw_deadline: float = 15.0
    max_missed_deadlines: int = 1

    def __post_init__(self) -> None:
        for label, value in (
            ("round_deadline", self.round_deadline),
            ("clw_deadline", self.clw_deadline),
        ):
            if not math.isfinite(value) or value <= 0:
                raise ParallelSearchError(f"{label} must be finite and positive, got {value}")
        if self.max_missed_deadlines < 0:
            raise ParallelSearchError(
                f"max_missed_deadlines must be >= 0, got {self.max_missed_deadlines}"
            )

    def with_(self, **changes) -> "FaultPolicy":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True, slots=True)
class ParallelSearchParams:
    """All knobs of a parallel-tabu-search run.

    Attributes
    ----------
    num_tsws:
        High-level parallelisation degree (number of Tabu Search Workers).
    clws_per_tsw:
        Low-level parallelisation degree (Candidate List Workers per TSW).
    global_iterations:
        Number of master-coordinated rounds; in every round each TSW runs
        ``tabu.local_iterations`` TS iterations.
    sync_mode:
        ``"heterogeneous"`` — a parent asks the remaining children to report
        as soon as ``report_fraction`` of them have reported (the paper's
        speed/load-aware strategy); ``"homogeneous"`` — wait for everyone.
    report_fraction:
        Fraction of children that must report before the early-report request
        is broadcast (the paper uses one half).
    diversify:
        Whether TSWs perform the diversification step at the start of every
        global iteration (Figure 9 compares on/off).
    tabu:
        Per-worker tabu-search parameters.
    cost:
        Domain-specific cost-model parameters shared by every worker, passed
        through to the problem builder (``None`` selects the domain's
        defaults — e.g. :class:`~repro.placement.cost.CostModelParams()` for
        placement).  The parallel engine itself never interprets this value.
    seed:
        Root seed; every process derives its own independent stream from it.
    fault:
        Optional :class:`FaultPolicy`.  ``None`` (the default) keeps the
        historical fail-fast behaviour — any worker death aborts the run —
        and changes nothing about message traffic or trajectories.
    """

    num_tsws: int = 4
    clws_per_tsw: int = 1
    global_iterations: int = 4
    sync_mode: SyncMode = "heterogeneous"
    report_fraction: float = 0.5
    diversify: bool = True
    tabu: TabuSearchParams = field(default_factory=TabuSearchParams)
    cost: Optional[Any] = None
    seed: int = 2003
    initial_placement_seed: Optional[int] = None
    fault: Optional[FaultPolicy] = None

    @property
    def fault_enabled(self) -> bool:
        """Whether a fault policy is set (``fault=None`` is the off switch)."""
        return self.fault is not None

    def __post_init__(self) -> None:
        if self.num_tsws < 1:
            raise ParallelSearchError(f"num_tsws must be >= 1, got {self.num_tsws}")
        if self.clws_per_tsw < 1:
            raise ParallelSearchError(f"clws_per_tsw must be >= 1, got {self.clws_per_tsw}")
        if self.global_iterations < 1:
            raise ParallelSearchError(
                f"global_iterations must be >= 1, got {self.global_iterations}"
            )
        if self.sync_mode not in ("heterogeneous", "homogeneous"):
            raise ParallelSearchError(f"unknown sync_mode {self.sync_mode!r}")
        if not (0.0 < self.report_fraction <= 1.0):
            raise ParallelSearchError(
                f"report_fraction must be in (0, 1], got {self.report_fraction}"
            )

    def with_(self, **changes) -> "ParallelSearchParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)
