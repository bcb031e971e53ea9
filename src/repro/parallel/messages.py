"""Message tags and payloads of the master / TSW / CLW protocol.

The protocol mirrors Figures 2–4 of the paper:

* the master broadcasts the current best solution to its TSWs at the start of
  every global iteration (:class:`GlobalStart`), collects one
  :class:`TswResult` per TSW, and may broadcast :class:`ReportNow` once the
  report threshold of the synchronisation policy is reached;
* a TSW sends one :class:`ClwTask` per CLW per local iteration, collects one
  :class:`ClwResult` per CLW, and may send :class:`ReportNow` to its slower
  CLWs;
* ``STOP`` terminates the worker loops.

Payload classes are intentionally *not* slotted dataclasses: the simulated
network estimates their size by walking ``__dict__``, so the byte accounting
sees the embedded NumPy solution arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..pvm.faults import (
    WORKER_ADMIT_TAG,
    WORKER_DOWN_TAG,
    WORKER_DRAIN_TAG,
    AdmitWorkers,
    DrainWorker,
    WorkerDown,
)
from .delta import SolutionPayload

__all__ = [
    "Tags",
    "WorkerDown",
    "AdmitWorkers",
    "DrainWorker",
    "GlobalStart",
    "ReportNow",
    "TswResult",
    "ClwTask",
    "ClwResult",
    "ClwSummary",
    "TswSummary",
    "ClwWorkerState",
    "TswWorkerState",
    "ClwSetup",
    "TswSetup",
    "SetupAck",
]


class Tags:
    """String tags of every message in the protocol."""

    GLOBAL_START = "global_start"
    TSW_RESULT = "tsw_result"
    REPORT_NOW = "report_now"
    CLW_TASK = "clw_task"
    CLW_RESULT = "clw_result"
    STOP = "stop"
    # --- session / pool extensions (PR 7) ---------------------------------
    #: Pool → persistent worker loop: configure for a new run.
    SETUP = "setup"
    #: Worker loop → parent/pool: setup installed, ready for traffic.
    SETUP_ACK = "setup_ack"
    #: Master → TSW → CLW: export your live run state for a checkpoint.
    STATE_REQUEST = "state_request"
    #: Child → parent: the requested worker-state export.
    STATE_REPLY = "state_reply"
    #: Driver → master: pause the run at the next global-iteration boundary.
    CANCEL = "cancel"
    #: Pool → persistent worker loops: exit for good.
    POOL_SHUTDOWN = "pool_shutdown"
    # --- fault tolerance (PR 8) -------------------------------------------
    #: Kernel/backend → parent or death listener: a worker died.  The tag
    #: literal lives in :mod:`repro.pvm.faults` (the kernels cannot import
    #: this module); the payload is :class:`~repro.pvm.faults.WorkerDown`.
    WORKER_DOWN = WORKER_DOWN_TAG
    # --- elasticity (PR 10) -----------------------------------------------
    #: Kernel (seeded ``SpawnWorker`` replay) or ``WorkerPool.grow`` → master:
    #: admit new TSW workers into the running search.  Payload is
    #: :class:`~repro.pvm.faults.AdmitWorkers`.
    ADMIT = WORKER_ADMIT_TAG
    #: Kernel (seeded ``DrainWorker`` replay) or ``WorkerPool.drain`` → master:
    #: gracefully retire the named worker at the next boundary, no strike.
    #: Payload is :class:`~repro.pvm.faults.DrainWorker`.
    DRAIN = WORKER_DRAIN_TAG


@dataclass
class GlobalStart:
    """Master → TSW: begin a global iteration from the given solution.

    ``solution`` is a :class:`~repro.parallel.delta.SolutionPayload` whose
    delta form applies to the solution the TSW *reported* for global
    iteration ``base_version`` — exactly what the TSW keeps resident after
    reporting.  A TSW that cannot apply a delta answers with a ``needs_full``
    :class:`TswResult` and the master re-broadcasts in full.
    """

    global_iteration: int
    solution: SolutionPayload
    #: Tabu list associated with the solution (``ArrayTabuList.to_payload()``), or
    #: ``None`` for the very first iteration.
    tabu_payload: Optional[tuple] = None
    #: Elastic re-assignment (fault mode only): a new diversification /
    #: candidate range for this TSW, shipped when the master re-partitioned
    #: ranges over the survivors.  ``None`` keeps the current range.
    tsw_range: Optional[Any] = None
    #: Limplock shrinking (fault mode only): override of
    #: ``params.tabu.local_iterations`` for this round, sized from the
    #: worker's observed throughput.  ``None`` keeps the configured budget.
    local_iterations: Optional[int] = None


@dataclass
class ReportNow:
    """Parent → child: stop working and report your current best immediately.

    ``round_id`` identifies the round the request refers to (the global
    iteration for master→TSW, the TSW-local task counter for TSW→CLW) so that
    a request that arrives late — after the child already reported — can be
    recognised as stale and ignored.
    """

    round_id: int


@dataclass
class ClwTask:
    """TSW → CLW: explore the neighbourhood of this solution.

    ``solution`` is a :class:`~repro.parallel.delta.SolutionPayload`; its
    delta form applies to the task solution of round ``base_version``, which the CLW restores after
    finishing each task (so its resident state is always the last task base,
    not the explored best prefix).  An empty delta means the TSW's solution
    did not change since the last round — the CLW skips the install outright.
    On a base-version mismatch the CLW answers a ``needs_full``
    :class:`ClwResult` and the TSW re-sends the task in full.
    """

    round_id: int
    solution: SolutionPayload
    #: Elastic re-assignment (fault mode only): a new compound-move range for
    #: this CLW, shipped when the TSW re-partitioned its CLW ranges after a
    #: CLW death.  ``None`` keeps the current range.
    cell_range: Optional[Any] = None


@dataclass
class ClwResult:
    """CLW → TSW: the best compound move found for one task."""

    clw_index: int
    round_id: int
    #: Swapped cell pairs of the best prefix, in application order.
    pairs: Tuple[Tuple[int, int], ...]
    cost_before: float
    cost_after: float
    trials: int
    interrupted: bool
    #: Cost after each prefix step, aligned with ``pairs`` — the per-step
    #: trajectory of the compound move, so the TSW can reconstruct the
    #: intermediate costs instead of stamping every step with the final one.
    step_costs: Tuple[float, ...] = ()
    #: Set when the CLW could not apply a delta task (base-version mismatch):
    #: the result carries no move and the TSW must re-send the task in full.
    needs_full: bool = False
    #: How the task solution was adopted: ``-1`` full install, otherwise the
    #: number of delta swaps applied (0 = unchanged solution, install
    #: skipped).  Observability for tests and the protocol-overhead bench.
    adopt_swaps: int = -1


@dataclass
class TswResult:
    """TSW → master: outcome of one global iteration."""

    tsw_index: int
    global_iteration: int
    #: Best solution found this round: a
    #: :class:`~repro.parallel.delta.SolutionPayload` whose delta form applies
    #: to the master's broadcast of the same global iteration (which the
    #: master retains, so no mismatch is possible on this hop); ``None`` on a
    #: ``needs_full`` reply.
    best_solution: Optional[SolutionPayload]
    best_cost: float
    local_iterations_done: int
    interrupted: bool
    evaluations: int
    tabu_payload: tuple = ()
    #: Set when the TSW could not apply a delta broadcast (base-version
    #: mismatch): the result carries no solution and the master re-sends the
    #: :class:`GlobalStart` in full to this TSW.
    needs_full: bool = False
    #: (virtual time, best cost so far) recorded after every local iteration
    #: of this global round.  The master merges these per-worker traces into
    #: the fine-grained best-cost-versus-time series the speedup experiments
    #: use (the paper measures "time to hit an x-quality solution" over the
    #: whole run, not only at global synchronisation points).
    trace: Tuple[Tuple[float, float], ...] = ()


@dataclass
class ClwSummary:
    """Return value of a CLW process (per-worker statistics)."""

    clw_index: int
    tasks_done: int
    trials: int
    interruptions: int


@dataclass
class TswSummary:
    """Return value of a TSW process (per-worker statistics)."""

    tsw_index: int
    global_iterations_done: int
    local_iterations_done: int
    interruptions: int
    best_cost: float
    evaluations: int


# --------------------------------------------------------------------------- #
# Session / pool extensions (PR 7)
# --------------------------------------------------------------------------- #


@dataclass
class ClwWorkerState:
    """Full serializable run state of one CLW, harvested for a checkpoint.

    ``evaluator_state`` is the pickled backend-specific
    ``evaluator.save_state()`` blob: delta-adopted and fully-installed
    solutions agree only to float tolerance (incremental cost accumulation),
    so bit-identical resumption must restore the evaluator's exact internal
    state rather than re-install the assignment.
    """

    clw_index: int
    rng_state: Dict[str, Any]
    assignment: np.ndarray
    evaluator_state: bytes
    evaluations: int
    resident_version: int
    tasks_done: int
    trials: int
    interruptions: int


@dataclass
class TswWorkerState:
    """Full serializable run state of one TSW (including its CLWs)."""

    tsw_index: int
    #: ``TabuSearch.export_state()`` — RNG, tabu list, frequency memory,
    #: iteration counters, best-so-far.
    search_state: Any
    assignment: np.ndarray
    evaluator_state: bytes
    evaluations: int
    resident_version: int
    #: ``DeltaEncoder.export_residents()`` of the TSW→master encoder
    #: (keyed by the literal ``"master"``).
    master_residents: Dict[Any, Tuple[int, np.ndarray]]
    #: ``DeltaEncoder.export_residents()`` of the TSW→CLW encoder
    #: (keyed by ``clw_index`` — stable across respawns).
    clw_residents: Dict[Any, Tuple[int, np.ndarray]]
    round_counter: int
    global_iterations_done: int
    local_iterations_done: int
    interruptions: int
    clw_states: Tuple[ClwWorkerState, ...] = ()


@dataclass
class ClwSetup:
    """Start-up record of one CLW run: the one argument of ``clw_process``.

    A TSW passes it to a cold spawn, or sends it to a persistent CLW loop as
    the ``SETUP`` payload.  A body only reads it: on the simulated and
    threads backends it holds the sender's own object.
    """

    problem: Any
    tabu_params: Any
    cell_range: Any
    clw_index: int
    seed: int
    initial_state: Optional[ClwWorkerState] = None


@dataclass
class TswSetup:
    """Start-up record of one TSW run: the one argument of ``tsw_process``.

    The master passes it to a cold spawn, or sends it to a persistent TSW
    loop as the ``SETUP`` payload.  A body only reads it: on the simulated
    and threads backends it holds the master's own object.
    """

    problem: Any
    params: Any
    tsw_index: int
    tsw_range: Any
    clw_ranges: Tuple[Any, ...]
    seed: int
    initial_state: Optional[TswWorkerState] = None


@dataclass
class SetupAck:
    """Worker loop → parent/pool: setup fully installed (CLWs included).

    The explicit ack closes a simulated-network ordering hazard: a large
    SETUP payload has a size-dependent latency, so a smaller message sent
    later could otherwise overtake it.  The master never sends run traffic
    to a pool worker before its ack arrived.
    """

    worker_name: str
