"""Master process of the parallel tabu search — Figure 2 of the paper.

The master

1. creates the initial solution and the reference objective vector,
2. starts the TSWs and hands every one the *same* initial solution,
3. runs ``global_iterations`` rounds: broadcast the incumbent best solution
   (plus its tabu list), collect one result per TSW — interrupting the slow
   ones according to the synchronisation policy — and adopt the best,
4. finally stops all workers and returns the best solution, its exact
   objectives, and the best-cost-versus-virtual-time trace the heterogeneity
   experiment (Figure 11) plots.

Everything per-TSW — the roster, range assignment, delta residents, health
ledger, deadlines, the ``SETUP`` handshake and the harvest — lives in the
:class:`~repro.parallel.coordinator.Coordinator` the master shares with every
TSW (which runs one over its CLWs).  This body keeps only the search step:
the initial solution, admissions and drains at the round boundary, adopting
the best report, the per-round records and the run state.

The process is *resumable*: the round loop can be entered at any global
iteration from a harvested :class:`MasterRunState`, capped after
``max_rounds`` rounds, or paused by a ``CANCEL`` message — in all three cases
the master harvests the full worker subtree state (master → TSW → CLW) before
stopping the workers, and returns an *incomplete* :class:`MasterResult` whose
``run_state`` resumes the run bit-identically.  Every TSW starts from one
:class:`~repro.parallel.messages.TswSetup` record: spawned with it (cold
start and checkpoint restore), or sent it on a persistent worker loop of a
warm :class:`~repro.session.WorkerPool`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .._rng import derive_seed
from ..core.protocols import SearchProblem, capture_evaluator, revive_evaluator
from ..metrics.trace import FaultEvent, best_so_far_envelope
from ..tabu.candidate import partition_cells
from .config import ParallelSearchParams
from .coordinator import Coordinator
from .delta import decode_solution, swap_list_between
from .messages import GlobalStart, Tags, TswResult, TswSetup, TswWorkerState
from .sync import SyncPolicy
from .tsw import CLW_SCHEME, tsw_process

__all__ = ["GlobalIterationRecord", "MasterResult", "MasterRunState", "master_process"]

#: How the master carves the cells into TSW diversification ranges.
TSW_SCHEME = "contiguous"


@dataclass
class GlobalIterationRecord:
    """What happened during one global iteration (for analysis and tests)."""

    index: int
    best_cost_after: float
    received_costs: Tuple[float, ...]
    interrupted_tsws: int
    finish_time: float


@dataclass
class MasterRunState:
    """Serializable mid-run state of the whole search tree.

    Everything a fresh master (under a fresh kernel, on any backend) needs
    to continue the run with a bit-identical trajectory: the master's own
    incumbent and exact evaluator state, the per-TSW resident-solution
    bookkeeping of the delta protocol (keyed by ``tsw_index`` — pids are not
    stable across kernels), the accumulated traces/records, and one
    :class:`~repro.parallel.messages.TswWorkerState` per TSW (each carrying
    its CLW states).
    """

    next_iteration: int
    best_cost: float
    best_solution: np.ndarray
    best_tabu_payload: Optional[tuple]
    initial_cost: float
    #: The assignment the master's evaluator currently holds, plus the
    #: pickled exact ``save_state()`` blob (delta-adopted state is only
    #: float-tolerance-equal to a fresh install, so the blob is canonical).
    evaluator_assignment: np.ndarray
    evaluator_state: bytes
    #: ``DeltaEncoder.export_residents()`` re-keyed by ``tsw_index``.
    master_residents: Dict[Any, Tuple[int, np.ndarray]]
    master_trace: List[Tuple[float, float]] = field(default_factory=list)
    worker_points: List[Tuple[float, float]] = field(default_factory=list)
    global_records: List[GlobalIterationRecord] = field(default_factory=list)
    total_tsw_evaluations: int = 0
    worker_states: Tuple[TswWorkerState, ...] = ()
    #: Session-timeline virtual time at which the state was harvested; a
    #: resume under a fresh kernel (clock restarts at zero) shifts its new
    #: trace points by this much so the stitched trace stays monotone.
    clock_base: float = 0.0
    #: ``HealthLedger.export_state()`` of the fault-tolerant master, or
    #: ``None``.  A resume revives every worker (cold resumes respawn, pool
    #: resumes repair) but keeps the observed throughput history.
    health: Optional[tuple] = None
    #: Fault incidents of the epoch that produced this state (observability;
    #: the session layer accumulates events across epochs).
    fault_events: List[FaultEvent] = field(default_factory=list)
    # --- elasticity (PR 10) -------------------------------------------------
    #: Total worker indices ever allocated (initial topology + mid-run
    #: admissions).
    num_workers: int = 0
    #: Live range assignment at pause, keyed by ``tsw_index``.  A resume of a
    #: grown/drained topology must restore these exactly — re-deriving them
    #: from worker counts would diverge from the admission-time re-partition.
    assigned_ranges: Optional[Dict[int, Any]] = None
    #: Indices gracefully retired before the pause; a resume does not respawn
    #: them.
    drained_workers: Tuple[int, ...] = ()


@dataclass
class MasterResult:
    """Return value of the master process."""

    best_cost: float
    #: Domain-specific crisp objective values of the final best solution
    #: (an ``ObjectiveVector`` for placement, the QAP objectives for QAP).
    #: ``None`` on a paused (incomplete) result — the evaluator state is
    #: kept pristine for the checkpoint instead of being re-installed.
    best_objectives: Any
    best_solution: np.ndarray
    initial_cost: float
    #: Fine-grained (virtual time, best cost) series: the master's own points
    #: (initial evaluation and every global iteration) merged with the
    #: per-local-iteration points reported by all TSWs, sorted by time and
    #: reduced to the best-so-far envelope.  This is the series Figure 11
    #: plots and the speedup experiments query for time-to-quality.
    trace: List[Tuple[float, float]] = field(default_factory=list)
    #: Coarse (virtual time, best cost) series with one point per global
    #: iteration, as seen by the master alone.
    master_trace: List[Tuple[float, float]] = field(default_factory=list)
    global_records: List[GlobalIterationRecord] = field(default_factory=list)
    total_tsw_evaluations: int = 0
    #: ``False`` when the run was paused (cancel or ``max_rounds``) before
    #: all global iterations finished; ``run_state`` then resumes it.
    complete: bool = True
    run_state: Optional[MasterRunState] = None
    #: Fault incidents observed during the run (fault mode only): worker
    #: deaths, deadline re-sends, limplock transitions, range re-assignments.
    fault_events: List[FaultEvent] = field(default_factory=list)
    #: Worker names (``"tsw<i>"``) declared dead during the run.
    dead_workers: Tuple[str, ...] = ()
    #: Worker names admitted mid-run (``WorkerPool.grow`` or a seeded
    #: ``SpawnWorker`` plan entry), in admission order.
    admitted_workers: Tuple[str, ...] = ()
    #: Worker names gracefully drained during the run (no strike).
    drained_workers: Tuple[str, ...] = ()
    #: Total worker indices ever part of the run (initial + admitted).
    num_workers: int = 0
    #: Final ``HealthLedger.export_state()`` rows (fault mode only) — lets
    #: callers check that admitted workers actually contributed evaluations.
    health: Optional[tuple] = None


def master_process(
    ctx,
    problem: SearchProblem,
    params: ParallelSearchParams,
    resume_state: Optional[MasterRunState] = None,
    max_rounds: Optional[int] = None,
    pool_pids: Optional[List[int]] = None,
):
    """Generator body of the master process (run it under a PVM kernel).

    Parameters
    ----------
    resume_state:
        Continue a paused run from this harvested state instead of creating
        a fresh initial solution.
    max_rounds:
        Run at most this many global iterations this invocation, then pause
        and return an incomplete result (session ``step``/chunked submit).
    pool_pids:
        Pids of persistent TSW worker loops (one per TSW, in ``tsw_index``
        order) to configure via ``SETUP`` instead of spawning fresh workers.
    """
    num_cells = problem.num_cells
    fault = params.fault

    # ---- initial solution and reference cost ------------------------------
    if resume_state is None:
        init_seed = (
            params.initial_placement_seed
            if params.initial_placement_seed is not None
            else derive_seed(params.seed, "initial")
        )
        initial_solution = problem.random_solution(init_seed)
        evaluator = problem.make_evaluator(initial_solution)
        yield ctx.compute(problem.install_work_units(), label="initial-eval")
        best_cost = evaluator.cost()
        initial_cost = best_cost
        best_solution = initial_solution.copy()
        best_tabu_payload: Optional[tuple] = None
        start_time = yield ctx.now()
        master_trace: List[Tuple[float, float]] = [(start_time, best_cost)]
        worker_points: List[Tuple[float, float]] = []
        global_records: List[GlobalIterationRecord] = []
        total_tsw_evaluations = 0
        start_round = 0
        time_offset = 0.0
    else:
        resume_start = yield ctx.now()
        evaluator = revive_evaluator(
            problem, resume_state.evaluator_assignment, resume_state.evaluator_state
        )
        yield ctx.compute(problem.install_work_units(), label="initial-eval")
        best_cost = float(resume_state.best_cost)
        initial_cost = float(resume_state.initial_cost)
        best_solution = np.asarray(resume_state.best_solution, dtype=np.int64).copy()
        best_tabu_payload = resume_state.best_tabu_payload
        master_trace = list(resume_state.master_trace)
        worker_points = list(resume_state.worker_points)
        global_records = list(resume_state.global_records)
        total_tsw_evaluations = int(resume_state.total_tsw_evaluations)
        start_round = int(resume_state.next_iteration)
        # Same-kernel resume (warm pool): the clock kept rolling past the
        # harvest time, keep raw times.  Fresh-kernel resume (checkpoint
        # restore): the clock restarted, shift new points past the stitched
        # history so the merged trace stays monotone in time.
        time_offset = max(0.0, float(resume_state.clock_base) - float(resume_start))

    # ---- worker topology ---------------------------------------------------
    # The roster can have *grown* (mid-run admissions) or *shrunk* (graceful
    # drains) before a pause: the resume state records the total index space,
    # the retired indices, and the live range assignment, which must be
    # restored exactly — re-deriving ranges from worker counts would diverge
    # from the admission-time re-partition.
    clw_ranges = partition_cells(
        num_cells, params.clws_per_tsw, scheme=CLW_SCHEME, label_prefix="clw"
    )
    if resume_state is None:
        next_worker_index = params.num_tsws
        tsw_ranges = partition_cells(
            num_cells, next_worker_index, scheme=TSW_SCHEME, label_prefix="tsw"
        )
        ranges = dict(enumerate(tsw_ranges))
    else:
        next_worker_index = int(resume_state.num_workers)
        ranges = resume_state.assigned_ranges
    coord = Coordinator(
        ctx,
        sync=SyncPolicy(mode=params.sync_mode, report_fraction=params.report_fraction),
        fault=fault,
        deadline=fault.round_deadline if fault is not None else 0.0,
        prefix="tsw",
        num_cells=num_cells,
        scheme=TSW_SCHEME,
        ranges=ranges,
        task_tag=Tags.GLOBAL_START,
        result_tag=Tags.TSW_RESULT,
        round_of=lambda result: result.global_iteration,
        ledger_keys=list(range(next_worker_index)),
    )
    coord.time_offset = time_offset
    worker_states: Dict[int, TswWorkerState] = {}
    if resume_state is not None:
        coord.drained.update(resume_state.drained_workers)
        coord.encoder.install_residents(resume_state.master_residents)
        if coord.ledger is not None and resume_state.health is not None:
            coord.ledger.install_state(resume_state.health)
        worker_states = {state.tsw_index: state for state in resume_state.worker_states}

    def launch(index: int, loop_pid: Optional[int], machine: Optional[int] = None):
        """Start TSW ``index`` on a warm pool loop, or spawn it."""
        setup = TswSetup(
            problem=problem,
            params=params,
            tsw_index=index,
            tsw_range=coord.ranges[index],
            clw_ranges=tuple(clw_ranges),
            seed=derive_seed(params.seed, "tsw", index),
            initial_state=worker_states.get(index),
        )
        return coord.provision(
            index, tsw_process, setup, loop_pid, name=f"tsw{index}", machine_index=machine
        )

    # A grown pool may hold more loops than the base topology (the extras
    # idle until admitted or resumed into a grown roster) — only *too few*
    # loops is a misconfiguration.  A resumed roster grown past the pool's
    # loop count spawns the overflow.
    if pool_pids is not None and resume_state is None and len(pool_pids) < params.num_tsws:
        raise ValueError(
            f"pool provides {len(pool_pids)} TSW loops, params want {params.num_tsws}"
        )
    loops = list(pool_pids or ())
    spawn_indices = [i for i in range(next_worker_index) if i not in coord.drained]
    for slot, index in enumerate(spawn_indices):
        yield from launch(index, loops[slot] if slot < len(loops) else None)
    yield from coord.await_acks()

    def honour_requests():
        """Drain and admit what was requested since the last boundary.

        Requests arrive asynchronously (a seeded SpawnWorker/DrainWorker
        replay, or WorkerPool.grow/drain on a live backend): scooped into
        ``coord.inbox`` by the coordinator's untagged receives, or still in
        the mailbox.  They are only *processed* at a boundary — the top of a
        global iteration or a pause, after its harvest — where every worker
        is idle and its last report is already folded in; that is what makes
        the grown topology deterministic under the simulator.
        """
        nonlocal next_worker_index
        scooped = coord.inbox
        coord.inbox = []
        drains = [m.payload for m in scooped if m.tag == Tags.DRAIN]
        admits = [m.payload for m in scooped if m.tag == Tags.ADMIT]
        for tag, requests in ((Tags.DRAIN, drains), (Tags.ADMIT, admits)):
            while True:
                request = yield ctx.probe(tag=tag)
                if request is None:
                    break
                requests.append(request.payload)
        if not (drains or admits):
            return
        boundary_at = yield ctx.now()
        for spec in drains:
            # Graceful retirement: the worker's current range is finished
            # (boundary semantics — its report for the previous round is
            # already adopted), so harvest is complete; no strike.
            for index in coord.live_indices():
                if f"tsw{index}" == spec.name:
                    yield from coord.drain(index, boundary_at)
        # (index, pool loop pid or None, machine pin)
        new_workers: List[Tuple[int, Optional[int], Optional[int]]] = []
        for spec in admits:
            if spec.pids:
                for loop_pid in spec.pids:
                    new_workers.append((next_worker_index, loop_pid, None))
                    next_worker_index += 1
            else:
                for _ in range(max(1, spec.count)):
                    new_workers.append((next_worker_index, None, spec.machine))
                    next_worker_index += 1
        if coord.ledger is not None:
            for index, _loop_pid, _machine in new_workers:
                coord.ledger.add_worker(index)
        # One re-partition over the final roster (survivors + admitted).
        # Admitted workers have no throughput observations yet, so the
        # weighted split only kicks in once everyone has reported.
        roster = coord.live_indices() + [entry[0] for entry in new_workers]
        if roster:
            coord.repartition(roster)
            coord.note(
                "range-reassigned",
                -1,
                f"ranges re-partitioned over {len(roster)} worker(s)",
                boundary_at,
            )
        for index, loop_pid, machine in new_workers:
            yield from launch(index, loop_pid, machine)
            coord.note("worker-admitted", index, "admitted mid-run", boundary_at)
        yield from coord.await_acks()

    # ---- global iterations --------------------------------------------------
    stop_round = params.global_iterations
    if max_rounds is not None:
        stop_round = min(stop_round, start_round + max(0, int(max_rounds)))
    next_round = start_round
    cancelled = False
    all_dead = False
    for global_iteration in range(start_round, stop_round):
        # a CANCEL scooped by the coordinator's untagged receives is
        # honoured here, at the boundary, like the probe; the inbox is left
        # as it is, so the pause that follows still honours its requests
        cancel = yield ctx.probe(tag=Tags.CANCEL)
        if cancel is not None or any(m.tag == Tags.CANCEL for m in coord.inbox):
            cancelled = True
            break
        yield from honour_requests()

        if not coord.live():
            now = yield ctx.now()
            coord.note("all-workers-dead", -1, "no survivors left", now)
            all_dead = True
            break
        broadcast_solution = best_solution.copy()

        def task(payload, cell_range, budget):
            return GlobalStart(
                global_iteration=global_iteration,
                solution=payload,
                tabu_payload=best_tabu_payload,
                tsw_range=cell_range,
                local_iterations=budget,
            )

        decoded_solutions: Dict[int, np.ndarray] = {}

        def accept(index: int, result: TswResult) -> bool:
            decoded = decode_solution(
                result.best_solution, broadcast_solution, expected_base_version=global_iteration
            )
            if decoded is None:
                # undecodable report: ship this TSW a full solution next round
                return False
            decoded_solutions[index] = decoded
            # after reporting, the TSW normalises onto its reported best —
            # record it so the next broadcast can be a delta
            coord.encoder.set_resident(index, global_iteration, decoded)
            worker_points.extend((float(t) + time_offset, float(c)) for t, c in result.trace)
            return True

        yield from coord.broadcast(
            global_iteration,
            broadcast_solution,
            task,
            budget_base=params.tabu.local_iterations,
        )
        if coord.ledger is not None:
            round_start = yield ctx.now()
        results: List[TswResult] = yield from coord.collect(
            global_iteration, broadcast_solution, task, accept
        )

        if coord.ledger is not None:
            # fold this round's reports into the throughput ledger and note
            # any fresh limplock transitions
            round_end = yield ctx.now()
            elapsed = float(round_end) - float(round_start)
            limplocked_before = set(coord.ledger.limplocked_keys())
            for result in results:
                coord.ledger.record_report(result.tsw_index, result.evaluations, elapsed)
            for index in coord.ledger.limplocked_keys():
                if index not in limplocked_before:
                    rate = coord.ledger.rate_of(index)
                    coord.note(
                        "limplock", index, f"observed rate {rate:.1f} evals/s", round_end
                    )

        # Adopt the best reported solution.  The master re-evaluates the
        # winner with its own (exact) evaluator so that the best-cost trace
        # and the final result use one canonical cost, independent of the
        # per-worker timing-surrogate state.  The evaluator holds the
        # broadcast solution, so each candidate is reached by committing its
        # delta and rejected candidates are rewound with a state restore —
        # no full cache rebuilds on this path either.
        results_by_cost = sorted(results, key=lambda r: r.best_cost)
        winner: Optional[TswResult] = None
        base_state = evaluator.save_state()
        for result in results_by_cost:
            if result.best_cost >= best_cost:
                break
            candidate = decoded_solutions[result.tsw_index]
            delta = swap_list_between(broadcast_solution, candidate)
            evaluator.apply_swaps(delta)
            yield ctx.compute(
                problem.adopt_work_units(int(delta.shape[0])), label="select-best"
            )
            exact_cost = evaluator.exact_cost()
            if exact_cost < best_cost:
                best_cost = exact_cost
                best_solution = candidate.copy()
                winner = result
                break
            # the reported cost was optimistic; try the next-best result
            evaluator.restore_state(base_state)
        if winner is not None:
            best_tabu_payload = winner.tabu_payload
        # each report carries the TSW's *cumulative* evaluation count (it
        # survives checkpoint/resume via the restored evaluator), so the
        # latest round overwrites rather than accumulates.  In fault mode an
        # all-struck-out round may report nothing — keep the previous total
        # rather than zeroing it.
        if results or fault is None:
            total_tsw_evaluations = sum(result.evaluations for result in results)

        now = yield ctx.now()
        now = float(now) + time_offset
        master_trace.append((now, best_cost))
        global_records.append(
            GlobalIterationRecord(
                index=global_iteration,
                best_cost_after=best_cost,
                received_costs=tuple(result.best_cost for result in results),
                interrupted_tsws=sum(1 for result in results if result.interrupted),
                finish_time=now,
            )
        )
        next_round = global_iteration + 1

    complete = next_round >= params.global_iterations and not cancelled
    if all_dead:
        # every worker died: nothing left to drive, return the best found so
        # far as the final (degraded) outcome rather than an unresumable pause
        complete = True

    run_state: Optional[MasterRunState] = None
    if not complete:
        # ---- harvest the worker subtree before stopping anyone ------------
        harvested = yield from coord.harvest()
        # a pause is a boundary too: a drain or admission requested in the
        # last round or during the harvest joins the roster it records
        yield from honour_requests()
        pause_time = yield ctx.now()
        evaluator_assignment, evaluator_state, _ = capture_evaluator(evaluator)
        run_state = MasterRunState(
            next_iteration=next_round,
            best_cost=float(best_cost),
            best_solution=best_solution.copy(),
            best_tabu_payload=best_tabu_payload,
            initial_cost=float(initial_cost),
            evaluator_assignment=evaluator_assignment,
            evaluator_state=evaluator_state,
            master_residents=coord.encoder.export_residents(),
            master_trace=list(master_trace),
            worker_points=list(worker_points),
            global_records=list(global_records),
            total_tsw_evaluations=int(total_tsw_evaluations),
            worker_states=tuple(harvested[i] for i in sorted(harvested) if i not in coord.drained),
            clock_base=float(pause_time) + time_offset,
            health=(coord.ledger.export_state() if coord.ledger is not None else None),
            fault_events=list(coord.events),
            num_workers=next_worker_index,
            assigned_ranges=dict(coord.ranges),
            drained_workers=tuple(sorted(coord.drained)),
        )

    # ---- shutdown ------------------------------------------------------------
    # Under a warm pool the STOP only ends the *inner* worker bodies; the
    # persistent loops return to idle and await the next SETUP.
    yield from coord.stop()

    if complete:
        # exact objectives of the final best solution
        evaluator.install_solution(best_solution)
        evaluator.exact_cost()
        best_objectives = evaluator.objectives()
    else:
        # paused: keep the harvested evaluator blob canonical — do not touch
        # the evaluator again, and leave the objectives unevaluated
        best_objectives = None

    # Merge the master's coarse points with the per-worker fine-grained points
    # into one best-so-far envelope sorted by time.
    envelope = list(best_so_far_envelope(master_trace + worker_points))

    def named(kind: str) -> Tuple[str, ...]:
        return tuple(event.worker for event in coord.events if event.kind == kind)

    return MasterResult(
        best_cost=float(best_cost),
        best_objectives=best_objectives,
        best_solution=best_solution,
        initial_cost=initial_cost,
        trace=envelope,
        master_trace=master_trace,
        global_records=global_records,
        total_tsw_evaluations=total_tsw_evaluations,
        complete=complete,
        run_state=run_state,
        fault_events=coord.events,
        dead_workers=tuple(f"tsw{index}" for index in sorted(coord.dead)),
        admitted_workers=named("worker-admitted"),
        drained_workers=named("worker-drained"),
        num_workers=next_worker_index,
        health=(coord.ledger.export_state() if coord.ledger is not None else None),
    )
