"""Configuration of the parallel tabu search (PTS)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Literal, Optional, Tuple

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
    candidate range is re-partitioned across the survivors (throughput-
    weighted when ``rebalance`` is set), its resident solution state is
    re-shipped through the existing delta/NACK path, and the run completes
    with degraded parallelism instead of raising.

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
    rebalance:
        Re-partition ranges over survivors weighted by *observed* per-round
        throughput (when every survivor has reported at least once);
        otherwise survivors split the cells evenly.
    limplock_ratio:
        A worker whose observed throughput stays below ``limplock_ratio``
        times the fastest survivor's for ``limplock_rounds`` consecutive
        rounds is *limplocked*: it stays in the run but gets a shrunk
        local-iteration budget sized from its observed rate.
    limplock_rounds:
        Consecutive slow rounds before the limplock flag engages.
    min_iteration_share:
        Floor of the shrunk budget, as a fraction of the configured
        ``tabu.local_iterations`` (so a limplocked worker still contributes).
    throughput_smoothing:
        EWMA weight of the newest per-round throughput observation.
    """

    round_deadline: float = 30.0
    clw_deadline: float = 15.0
    max_missed_deadlines: int = 1
    rebalance: bool = True
    limplock_ratio: float = 0.25
    limplock_rounds: int = 2
    min_iteration_share: float = 0.25
    throughput_smoothing: float = 0.5

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
        if not (0.0 < self.limplock_ratio < 1.0):
            raise ParallelSearchError(
                f"limplock_ratio must be in (0, 1), got {self.limplock_ratio}"
            )
        if self.limplock_rounds < 1:
            raise ParallelSearchError(
                f"limplock_rounds must be >= 1, got {self.limplock_rounds}"
            )
        if not (0.0 < self.min_iteration_share <= 1.0):
            raise ParallelSearchError(
                f"min_iteration_share must be in (0, 1], got {self.min_iteration_share}"
            )
        if not (0.0 < self.throughput_smoothing <= 1.0):
            raise ParallelSearchError(
                f"throughput_smoothing must be in (0, 1], got {self.throughput_smoothing}"
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
    tsw_partition_scheme / clw_partition_scheme:
        How cell ranges are carved up between TSWs (for diversification) and
        between the CLWs of one TSW (for candidate construction).
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
    worker_speed_hints:
        Optional per-TSW expected *relative* speeds (length ``num_tsws``,
        positive), e.g. ``(40.0, 1.0, 1.0)`` for one GPU worker next to two
        CPU workers.  Feeds the master's
        :class:`~repro.parallel.health.HealthLedger`, which normalises
        observed throughput by these hints before limplock detection and
        budget shrinking — without them a 10–50× device-speed skew makes
        every CPU worker look limplocked.  ``None`` (the default) treats
        all workers as the same device class.
    """

    num_tsws: int = 4
    clws_per_tsw: int = 1
    global_iterations: int = 4
    sync_mode: SyncMode = "heterogeneous"
    report_fraction: float = 0.5
    diversify: bool = True
    tsw_partition_scheme: str = "contiguous"
    clw_partition_scheme: str = "strided"
    tabu: TabuSearchParams = field(default_factory=TabuSearchParams)
    cost: Optional[Any] = None
    seed: int = 2003
    initial_placement_seed: Optional[int] = None
    fault: Optional[FaultPolicy] = None
    worker_speed_hints: Optional[Tuple[float, ...]] = None

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
        hints = self.worker_speed_hints
        if hints is not None:
            hints = tuple(float(h) for h in hints)
            if len(hints) != self.num_tsws:
                raise ParallelSearchError(
                    f"worker_speed_hints must have one entry per TSW "
                    f"({self.num_tsws}), got {len(hints)}"
                )
            for h in hints:
                if not (h > 0.0) or h != h or h == float("inf"):
                    raise ParallelSearchError(
                        f"worker_speed_hints entries must be positive finite, got {h!r}"
                    )
            object.__setattr__(self, "worker_speed_hints", hints)

    @property
    def total_workers(self) -> int:
        """Total number of worker processes (TSWs + CLWs), excluding the master."""
        return self.num_tsws + self.num_tsws * self.clws_per_tsw

    def with_(self, **changes) -> "ParallelSearchParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)
