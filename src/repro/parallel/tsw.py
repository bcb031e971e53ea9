"""Tabu Search Worker (TSW) process — Figure 3 of the paper.

Each TSW owns a complete tabu search (tabu list, frequency memory, aspiration)
over its private copy of the solution.  Per global iteration it

1. adopts the solution broadcast by the master (together with the tabu list
   associated with it),
2. performs the diversification step restricted to its own cell range so that
   different TSWs explore different regions (Section 4.1),
3. runs ``local_iterations`` tabu-search iterations; the candidate compound
   moves of every iteration are produced by its CLWs, collected according to
   the synchronisation policy (wait for all, or interrupt the slow half), and
4. reports its best solution, cost and tabu list to the master — either after
   finishing all local iterations or as soon as the master requests an early
   report.

The CLWs are driven by the same
:class:`~repro.parallel.coordinator.Coordinator` the master runs over the
TSWs: it owns the CLW roster, their ranges and resident task solutions (each
task ships the delta since the CLW's previous task, usually one accepted
compound move), and in fault mode the CLW health ledger and deadlines.  The
master → TSW hop is resident too: the broadcast's delta applies to the
solution this TSW *reported* last round, because after reporting the TSW
normalises its evaluator onto that best (the report itself is a delta
against the broadcast).  A delta it cannot apply is answered with a
``needs_full`` :class:`~repro.parallel.messages.TswResult`, and the master
re-broadcasts in full.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .._rng import derive_seed
from ..core.protocols import capture_evaluator, revive_evaluator
from ..tabu.moves import CompoundMove, SwapMove
from ..tabu.search import TabuSearch
from .clw import clw_process
from .coordinator import Coordinator
from .delta import DeltaEncoder, ResidentSolution, swap_list_between
from .messages import (
    ClwResult,
    ClwSetup,
    ClwTask,
    ClwWorkerState,
    GlobalStart,
    ReportNow,
    SetupAck,
    Tags,
    TswResult,
    TswSetup,
    TswSummary,
    TswWorkerState,
)
from .sync import SyncPolicy

__all__ = ["tsw_process"]

#: How a TSW carves the cells into CLW candidate ranges.
CLW_SCHEME = "strided"
#: Key under which the TSW's encoder tracks what the master knows resident.
_MASTER = "master"


def _result_to_candidate(result: ClwResult) -> CompoundMove:
    """Convert a CLW's wire-format result into a candidate compound move.

    ``step_costs`` carries the cost after each prefix step, so intermediate
    :class:`SwapMove`\\ s keep their own trial costs.
    """
    swaps = [
        SwapMove(cell_a=int(a), cell_b=int(b), cost_after=float(cost))
        for (a, b), cost in zip(result.pairs, result.step_costs)
    ]
    return CompoundMove(
        swaps=swaps,
        cost_before=result.cost_before,
        cost_after=result.cost_after,
        trials=result.trials,
        truncated_early=result.interrupted,
    )


def _needs_full_result(tsw_index: int, global_iteration: int) -> TswResult:
    """A ``needs_full`` reply: the delta broadcast could not be applied."""
    return TswResult(
        tsw_index=tsw_index,
        global_iteration=global_iteration,
        best_solution=None,
        best_cost=float("inf"),
        local_iterations_done=0,
        interrupted=False,
        evaluations=0,
        needs_full=True,
    )


def tsw_process(
    ctx,
    setup: TswSetup,
    master_pid: Optional[int] = None,
    clw_pids: Optional[List[int]] = None,
):
    """Generator body of a TSW process (run it under a PVM kernel).

    ``setup`` is the TSW's start-up record; its ``initial_state`` resumes
    the TSW from a checkpointed
    :class:`~repro.parallel.messages.TswWorkerState` (its CLWs get their own
    slices).  ``master_pid`` overrides where results are reported
    (persistent worker loops run under a pool parent, not under the master).
    ``clw_pids`` sends each CLW its record on an already-running CLW loop
    instead of spawning it — the warm-pool path; their order must match
    ``setup.clw_ranges``.
    """
    if master_pid is None:
        master_pid = ctx.parent
    problem, params, tsw_index = setup.problem, setup.params, setup.tsw_index
    tsw_range, initial_state = setup.tsw_range, setup.initial_state
    fault = params.fault
    coord = Coordinator(
        ctx,
        sync=SyncPolicy(mode=params.sync_mode, report_fraction=params.report_fraction),
        fault=fault,
        deadline=fault.clw_deadline if fault is not None else 0.0,
        prefix="clw",
        num_cells=problem.num_cells,
        scheme=CLW_SCHEME,
        ranges=dict(enumerate(setup.clw_ranges)),
        task_tag=Tags.CLW_TASK,
        result_tag=Tags.CLW_RESULT,
        round_of=lambda result: result.round_id,
        ledger_keys=list(range(len(setup.clw_ranges))),
    )

    # ---- start the candidate-list workers ---------------------------------
    clw_states: Dict[int, ClwWorkerState] = {}
    if initial_state is not None:
        clw_states = {s.clw_index: s for s in initial_state.clw_states}
    for clw_index, clw_range in enumerate(setup.clw_ranges):
        clw_setup = ClwSetup(
            problem=problem,
            tabu_params=params.tabu,
            cell_range=clw_range,
            clw_index=clw_index,
            seed=derive_seed(setup.seed, "tsw", tsw_index, "clw", clw_index),
            initial_state=clw_states.get(clw_index),
        )
        loop_pid = clw_pids[clw_index] if clw_pids is not None else None
        yield from coord.provision(
            clw_index, clw_process, clw_setup, loop_pid, name=f"tsw{tsw_index}.clw{clw_index}"
        )
    if clw_pids is not None:
        # acknowledged bottom-up: our SETUP_ACK follows our CLWs' acks
        yield from coord.await_acks()
        yield ctx.send(master_pid, Tags.SETUP_ACK, SetupAck(worker_name=ctx.name))

    evaluator = None
    search: Optional[TabuSearch] = None
    resident = ResidentSolution()  # what we hold vs the master's broadcasts
    master_encoder = DeltaEncoder()  # what the master knows about us
    round_counter = 0
    global_iterations_done = 0
    local_iterations_done = 0
    interruptions = 0

    if initial_state is not None and initial_state.search_state is not None:
        evaluator = revive_evaluator(
            problem,
            initial_state.assignment,
            initial_state.evaluator_state,
            initial_state.evaluations,
        )
        yield ctx.compute(problem.install_work_units(), label="install")
        search = TabuSearch(
            evaluator,
            params.tabu,
            cell_range=tsw_range,
            seed=derive_seed(setup.seed, "tsw-search", tsw_index),
        )
        search.install_state(initial_state.search_state)
        resident.version = int(initial_state.resident_version)
        master_encoder.install_residents(initial_state.master_residents)
        coord.encoder.install_residents(initial_state.clw_residents)
        round_counter = int(initial_state.round_counter)
        global_iterations_done = int(initial_state.global_iterations_done)
        local_iterations_done = int(initial_state.local_iterations_done)
        interruptions = int(initial_state.interruptions)

    while True:
        message = yield ctx.recv()
        if message.tag == Tags.STOP:
            yield from coord.stop()
            break
        if message.tag == Tags.REPORT_NOW:
            continue  # stale: we already reported for that iteration
        if message.tag == Tags.STATE_REQUEST:
            # Harvest for a checkpoint: collect the live CLWs' states and
            # reply with the full subtree.  Only sent at a global-iteration
            # boundary, when everyone is idle; in fault mode the CLW deadline
            # bounds the wait, so a CLW that dies meanwhile costs the
            # checkpoint only that CLW.
            replies = yield from coord.harvest()
            assignment, evaluator_state, evaluations = capture_evaluator(evaluator)
            state = TswWorkerState(
                tsw_index=tsw_index,
                search_state=(search.export_state() if search is not None else None),
                assignment=assignment,
                evaluator_state=evaluator_state,
                evaluations=evaluations,
                resident_version=resident.version,
                master_residents=master_encoder.export_residents(),
                clw_residents=coord.encoder.export_residents(),
                round_counter=round_counter,
                global_iterations_done=global_iterations_done,
                local_iterations_done=local_iterations_done,
                interruptions=interruptions,
                clw_states=tuple(replies[i] for i in sorted(replies)),
            )
            yield ctx.send(message.src, Tags.STATE_REPLY, state)
            continue
        if message.tag == Tags.WORKER_DOWN:
            # backend obituary for one of our CLWs, delivered between rounds
            yield from coord.obituary(message)
            continue
        if message.tag != Tags.GLOBAL_START:
            continue
        start: GlobalStart = message.payload
        # elastic re-assignment: the master re-partitioned TSW ranges over
        # the survivors and shipped us a new diversification range
        if start.tsw_range is not None:
            tsw_range = start.tsw_range
            if search is not None:
                search.set_cell_range(start.tsw_range)

        # ---- adopt the master's solution (and its tabu list) -------------
        evaluator, applied = resident.adopt(problem, evaluator, start.solution)
        if applied is None:
            # NACK: the master re-broadcasts to us in full
            yield ctx.send(
                master_pid,
                Tags.TSW_RESULT,
                _needs_full_result(tsw_index, start.global_iteration),
            )
            continue
        if search is None:
            search = TabuSearch(
                evaluator,
                params.tabu,
                cell_range=tsw_range,
                seed=derive_seed(setup.seed, "tsw-search", tsw_index),
            )
        elif applied:
            # adopt checked the delta's checksum first, so a wrong base never
            # reaches the best-solution tracking
            search.note_best()
        # an empty delta installs nothing: the post-report normalisation left
        # the evaluator in the state a full install would produce
        if applied < 0:
            yield ctx.compute(problem.install_work_units(), label="install")
        elif applied:
            yield ctx.compute(problem.adopt_work_units(applied), label="install")
        # the master knows exactly what we hold now: this round's broadcast
        master_encoder.set_resident(
            _MASTER, start.global_iteration, evaluator.snapshot()
        )
        if start.tabu_payload is not None:
            search.adopt_tabu_list(start.tabu_payload)

        # ---- diversification within this TSW's private range -------------
        if params.diversify and params.tabu.diversification_depth > 0:
            evals_before = evaluator.evaluations
            search.diversify()
            yield ctx.compute(
                float(evaluator.evaluations - evals_before), label="diversify"
            )

        # ---- local iterations --------------------------------------------
        interrupted = False
        locals_this_round = 0
        local_trace = []
        # limplock shrinking (fault mode only): the master may ship a smaller
        # per-round budget sized from this worker's observed throughput
        budget = start.local_iterations
        if budget is None:
            budget = params.tabu.local_iterations
        for _ in range(budget):
            round_counter += 1
            solution = evaluator.snapshot()

            def task(payload, cell_range, _budget):
                return ClwTask(round_id=round_counter, solution=payload, cell_range=cell_range)

            yield from coord.broadcast(round_counter, solution, task)
            results: List[ClwResult] = yield from coord.collect(
                round_counter, solution, task
            )
            candidates = [_result_to_candidate(result) for result in results]
            evals_before = evaluator.evaluations
            search.consider_candidates(candidates)
            yield ctx.compute(float(evaluator.evaluations - evals_before), label="accept")
            locals_this_round += 1
            local_iterations_done += 1
            now = yield ctx.now()
            local_trace.append((float(now), float(search.best_cost)))

            # Did the master ask us to cut this global iteration short?  (A
            # request scooped by the fault-mode collect sits in the inbox.)
            scooped = [m for m in coord.inbox if m.tag == Tags.REPORT_NOW]
            coord.inbox = []
            request = scooped[-1] if scooped else None
            if request is None:
                request = yield ctx.probe(tag=Tags.REPORT_NOW)
            if request is not None:
                report: ReportNow = request.payload
                if report.round_id == start.global_iteration:
                    interrupted = True
                    interruptions += 1
                    break
                # stale request for an earlier global iteration: ignore

        # ---- report to the master ----------------------------------------
        global_iterations_done += 1
        best_solution = search.best_solution
        report_payload = master_encoder.encode(
            _MASTER, best_solution, version=start.global_iteration
        )
        result = TswResult(
            tsw_index=tsw_index,
            global_iteration=start.global_iteration,
            best_solution=report_payload,
            best_cost=search.best_cost,
            local_iterations_done=locals_this_round,
            interrupted=interrupted,
            evaluations=evaluator.evaluations,
            tabu_payload=search.tabu_list.to_payload(),
            trace=tuple(local_trace),
        )
        yield ctx.send(master_pid, Tags.TSW_RESULT, result)
        # Normalise the resident solution onto the reported best — the base
        # the master encodes the next broadcast against.  Applied even when
        # no swaps are needed: the exact timing refresh leaves the evaluator
        # in the same canonical state a full install of the reported best
        # would, so an empty delta next round is interchangeable with one.
        normalize = swap_list_between(evaluator.snapshot(), best_solution)
        evaluator.apply_swaps(normalize, exact_timing=True)
        if normalize.shape[0]:
            yield ctx.compute(
                problem.adopt_work_units(int(normalize.shape[0])), label="normalize"
            )

    best_cost = search.best_cost if search is not None else float("inf")
    evaluations = evaluator.evaluations if evaluator is not None else 0
    return TswSummary(
        tsw_index=tsw_index,
        global_iterations_done=global_iterations_done,
        local_iterations_done=local_iterations_done,
        interruptions=interruptions,
        best_cost=best_cost,
        evaluations=evaluations,
    )
