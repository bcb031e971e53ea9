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

Between depth steps the CLW polls for an early-report request
(:class:`~repro.parallel.messages.ReportNow`) from the parent — the mechanism
the heterogeneous synchronisation uses to keep slow machines from stalling
the whole search.
"""

from __future__ import annotations

import copy
import pickle
from typing import Optional

import numpy as np

from .._rng import derive_seed, make_rng
from ..core.protocols import SearchProblem
from ..tabu.candidate import CellRange
from ..tabu.moves import CompoundMoveBuilder
from ..tabu.params import TabuSearchParams
from .delta import ResidentSolution, as_payload, solution_crc
from .messages import ClwResult, ClwSummary, ClwTask, ClwWorkerState, ReportNow, Tags

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


def clw_process(
    ctx,
    problem: SearchProblem,
    tabu_params: TabuSearchParams,
    cell_range: CellRange,
    clw_index: int,
    seed: int,
    initial_state: Optional[ClwWorkerState] = None,
):
    """Generator body of a CLW process (run it under a PVM kernel).

    Parameters
    ----------
    problem:
        Shared immutable problem description.
    tabu_params:
        ``pairs_per_step`` (m), ``move_depth`` (d) and the early-accept flag
        are the relevant fields here.
    cell_range:
        The private range this CLW draws the first cell of every candidate
        pair from.
    clw_index:
        Index of this CLW within its parent TSW (used in results and seeds).
    seed:
        Seed of this worker's private random stream.
    initial_state:
        Checkpointed :class:`~repro.parallel.messages.ClwWorkerState` to
        resume from — restores the RNG stream, the evaluator's exact
        internal state and the resident-solution version, so the resumed
        trajectory is bit-identical to the uninterrupted one.
    """
    rng = make_rng(derive_seed(seed, "clw", clw_index), ctx.name)
    evaluator = None
    resident = ResidentSolution()
    base_state = None  # evaluator snapshot at the current task base
    tasks_done = 0
    total_trials = 0
    interruptions = 0

    if initial_state is not None and initial_state.evaluator_state:
        rng.bit_generator.state = copy.deepcopy(initial_state.rng_state)
        evaluator = problem.make_evaluator(
            np.asarray(initial_state.assignment, dtype=np.int64)
        )
        yield ctx.compute(problem.install_work_units(), label="install")
        evaluator.restore_state(pickle.loads(initial_state.evaluator_state))
        evaluator.evaluations = int(initial_state.evaluations)
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
            state = ClwWorkerState(
                clw_index=clw_index,
                rng_state=copy.deepcopy(rng.bit_generator.state),
                assignment=(
                    evaluator.snapshot() if evaluator is not None else np.empty(0, np.int64)
                ),
                evaluator_state=(
                    pickle.dumps(evaluator.save_state(), protocol=4)
                    if evaluator is not None
                    else b""
                ),
                evaluations=(evaluator.evaluations if evaluator is not None else 0),
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
        payload = as_payload(task.solution, version=task.round_id)

        # ---- adopt the task solution (full, delta, or unchanged) ----------
        if evaluator is None:
            if not payload.is_full:
                # first contact must ship full; NACK so the TSW recovers
                yield ctx.send(ctx.parent, Tags.CLW_RESULT, _nack(clw_index, task.round_id))
                continue
            evaluator = problem.make_evaluator(payload.full_solution())
            adopt_swaps = -1
            yield ctx.compute(problem.install_work_units(), label="install")
        else:
            plan, data = resident.plan(payload)
            if plan == "full":
                evaluator.install_solution(data)
                adopt_swaps = -1
                yield ctx.compute(problem.install_work_units(), label="install")
            elif plan == "delta" and data.shape[0] == 0:
                adopt_swaps = 0  # unchanged solution: skip the install
            elif plan == "delta":
                evaluator.apply_swaps(data, exact_timing=True)
                if solution_crc(evaluator.snapshot()) != payload.target_crc:
                    # resident base diverged from the sender's record — the
                    # evaluator now holds a wrong solution, but the recovery
                    # shipment is a full install that overwrites everything
                    resident.version = -1
                    yield ctx.send(
                        ctx.parent, Tags.CLW_RESULT, _nack(clw_index, task.round_id)
                    )
                    continue
                adopt_swaps = int(data.shape[0])
                yield ctx.compute(
                    problem.adopt_work_units(adopt_swaps), label="install"
                )
            else:  # mismatch: delta against a base we do not hold
                yield ctx.send(ctx.parent, Tags.CLW_RESULT, _nack(clw_index, task.round_id))
                continue
        resident.adopted(payload)
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
