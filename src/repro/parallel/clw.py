"""Candidate List Worker (CLW) process — Figure 4 of the paper.

A CLW serves its parent TSW: for every task it receives it adopts the TSW's
current solution, explores the neighbourhood restricted to its private cell
range by building a compound move of configurable depth, and sends the best
(sub-)move back.  Each depth step draws its whole candidate list up front and
scores it with one call to the evaluator's batched swap-evaluation kernel
(``evaluate_swaps_batch`` of the :class:`~repro.core.protocols.SwapEvaluator`
protocol).

The CLW keeps its solution *resident*: after finishing a task it rewinds the
evaluator to the task base, so the next task's
:class:`~repro.parallel.delta.SolutionPayload` can arrive as a swap-list
delta (often one accepted compound move — a handful of swaps) and be applied
with the evaluator's bulk ``apply_swaps`` path instead of a
full install and cache rebuild.  An empty delta (the TSW's solution did not
change) skips the install outright.  On a base-version or checksum mismatch
the CLW answers a ``needs_full`` NACK and the TSW re-sends the task in full.
These decisions live in :class:`~repro.parallel.delta.ResidentSolution`,
through which the TSW adopts the master's broadcasts too.

Between depth steps the CLW polls for an early-report request
(:class:`~repro.parallel.messages.ReportNow`) from the parent — the mechanism
the heterogeneous synchronisation uses to keep slow machines from stalling
the whole search.
"""

from __future__ import annotations

import copy

from .._rng import derive_seed, make_rng
from ..core.protocols import capture_evaluator, revive_evaluator
from ..tabu.moves import CompoundMoveBuilder
from .delta import ResidentSolution
from .messages import ClwResult, ClwSetup, ClwSummary, ClwTask, ClwWorkerState, ReportNow, Tags

__all__ = ["clw_process"]


def _nack(clw_index: int, round_id: int) -> ClwResult:
    """A ``needs_full`` reply: the delta task could not be applied."""
    return ClwResult(
        clw_index=clw_index,
        round_id=round_id,
        pairs=(),
        cost_before=0.0,
        cost_after=0.0,
        trials=0,
        interrupted=False,
        needs_full=True,
    )


def clw_process(ctx, setup: ClwSetup):
    """Generator body of a CLW process (run it under a PVM kernel).

    ``setup`` is the CLW's start-up record:

    * ``problem``: the shared immutable problem description;
    * ``tabu_params``: ``pairs_per_step`` (m), ``move_depth`` (d) and the
      early-accept flag are the relevant fields here;
    * ``cell_range``: the private range this CLW draws the first cell of
      every candidate pair from;
    * ``clw_index`` and ``seed``: this CLW's index within its parent TSW
      (used in results and seeds) and the seed of its private random stream;
    * ``initial_state``: a checkpointed
      :class:`~repro.parallel.messages.ClwWorkerState` to resume from — it
      restores the RNG stream, the evaluator's exact internal state and the
      resident-solution version, so the resumed trajectory is bit-identical
      to the uninterrupted one.
    """
    problem, tabu_params, clw_index = setup.problem, setup.tabu_params, setup.clw_index
    cell_range, initial_state = setup.cell_range, setup.initial_state
    rng = make_rng(derive_seed(setup.seed, "clw", clw_index), ctx.name)
    evaluator = None
    resident = ResidentSolution()
    base_state = None  # evaluator snapshot at the current task base
    tasks_done = 0
    total_trials = 0
    interruptions = 0

    if initial_state is not None and initial_state.evaluator_state:
        rng.bit_generator.state = copy.deepcopy(initial_state.rng_state)
        evaluator = revive_evaluator(
            problem,
            initial_state.assignment,
            initial_state.evaluator_state,
            initial_state.evaluations,
        )
        yield ctx.compute(problem.install_work_units(), label="install")
        resident.version = int(initial_state.resident_version)
        tasks_done = int(initial_state.tasks_done)
        total_trials = int(initial_state.trials)
        interruptions = int(initial_state.interruptions)

    while True:
        message = yield ctx.recv()  # task, stop, state request, or stale report_now
        if message.tag == Tags.STOP:
            break
        if message.tag == Tags.REPORT_NOW:
            # Stale interrupt from a round whose result we already sent.
            continue
        if message.tag == Tags.STATE_REQUEST:
            assignment, evaluator_state, evaluations = capture_evaluator(evaluator)
            state = ClwWorkerState(
                clw_index=clw_index,
                rng_state=copy.deepcopy(rng.bit_generator.state),
                assignment=assignment,
                evaluator_state=evaluator_state,
                evaluations=evaluations,
                resident_version=resident.version,
                tasks_done=tasks_done,
                trials=total_trials,
                interruptions=interruptions,
            )
            yield ctx.send(message.src, Tags.STATE_REPLY, state)
            continue
        if message.tag != Tags.CLW_TASK:
            continue
        task: ClwTask = message.payload
        if task.cell_range is not None:
            # elastic re-assignment: a CLW died and the TSW re-partitioned
            # its ranges over the survivors
            cell_range = task.cell_range

        # ---- adopt the task solution (full, delta, or unchanged) ----------
        evaluator, adopt_swaps = resident.adopt(problem, evaluator, task.solution)
        if adopt_swaps is None:
            # NACK: the TSW re-sends the task in full
            yield ctx.send(ctx.parent, Tags.CLW_RESULT, _nack(clw_index, task.round_id))
            continue
        if adopt_swaps < 0:
            yield ctx.compute(problem.install_work_units(), label="install")
        elif adopt_swaps:
            yield ctx.compute(problem.adopt_work_units(adopt_swaps), label="install")
        base_state = evaluator.save_state()

        # ---- explore the neighbourhood ------------------------------------
        builder = CompoundMoveBuilder(
            evaluator,
            cell_range,
            pairs_per_step=tabu_params.pairs_per_step,
            depth=tabu_params.move_depth,
            early_accept=tabu_params.early_accept,
        )
        interrupted = False
        while builder.wants_more_steps():
            interrupt = yield ctx.probe(tag=Tags.REPORT_NOW)
            if interrupt is not None:
                request: ReportNow = interrupt.payload
                if request.round_id == task.round_id:
                    interrupted = True
                    interruptions += 1
                    break
                continue  # stale interrupt for an earlier round: ignore
            trials = builder.step(rng)
            # one commit accompanies the batch of trials of each step
            yield ctx.compute(trials + 1, label="explore")

        move = builder.finalize()
        total_trials += move.trials
        tasks_done += 1
        result = ClwResult(
            clw_index=clw_index,
            round_id=task.round_id,
            pairs=tuple(move.pairs()),
            cost_before=move.cost_before,
            cost_after=move.cost_after,
            trials=move.trials,
            interrupted=interrupted,
            step_costs=tuple(swap.cost_after for swap in move.swaps),
            adopt_swaps=adopt_swaps,
        )
        yield ctx.send(ctx.parent, Tags.CLW_RESULT, result)
        # Rewind to the task base: the resident solution the next delta
        # applies to is the task solution, not the explored best prefix.
        evaluator.restore_state(base_state)

    return ClwSummary(
        clw_index=clw_index,
        tasks_done=tasks_done,
        trials=total_trials,
        interruptions=interruptions,
    )
