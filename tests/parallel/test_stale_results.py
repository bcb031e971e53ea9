"""Regression tests: a stale/duplicate worker report must not wedge a collect loop.

Under the simulator the master/TSW collect loops only ever see fresh results,
so the latent race was invisible: a result whose round id did not match hit
``continue`` *without* discarding the sender from ``pending``.  On a truly
asynchronous backend a late or duplicate report from an earlier round can be
the only message a worker sends during the current round — and the loop then
waits forever for a result that never comes.

A :class:`~scripted_kernel.ScriptedKernel` drives a process generator
against a fixed message script.  When the generator asks for a receive the
script cannot serve, the harness raises
:class:`~scripted_kernel.ScriptedDeadlock` — which is exactly what the
pre-fix code does with the injected stale results (the collect loop asks for
one more result than the script holds).  With the fix (discard the sender
*before* the staleness check) the scripts below run to completion.
"""

from __future__ import annotations

import pytest

from repro.parallel import ParallelSearchParams, build_problem
from repro.parallel.delta import SolutionPayload
from repro.parallel.master import MasterResult, master_process
from repro.parallel.messages import (
    ClwResult,
    GlobalStart,
    Tags,
    TswResult,
    TswSetup,
    TswSummary,
)
from repro.parallel.tsw import tsw_process
from repro.placement import load_benchmark
from repro.tabu.candidate import partition_cells
from repro.tabu import TabuSearchParams
from scripted_kernel import ScriptedContext, ScriptedKernel


@pytest.fixture(scope="module")
def problem():
    params = ParallelSearchParams(seed=5)
    return build_problem(load_benchmark("mini64"), params)


def make_tsw_result(problem, *, tsw_index: int, global_iteration: int) -> TswResult:
    solution = problem.random_solution(seed=40 + tsw_index)
    return TswResult(
        tsw_index=tsw_index,
        global_iteration=global_iteration,
        best_solution=SolutionPayload.full_shipment(solution, global_iteration),
        best_cost=1e9,  # deliberately worse than the incumbent: never adopted
        local_iterations_done=1,
        interrupted=False,
        evaluations=10,
        tabu_payload=(),
        trace=(),
    )


class TestMasterStaleResult:
    def test_stale_tsw_result_does_not_wedge_the_master(self, problem):
        """TSW 0's only message this round is a duplicate report from an old
        round; the master must still complete the global iteration."""
        params = ParallelSearchParams(
            num_tsws=2,
            clws_per_tsw=1,
            global_iterations=1,
            sync_mode="homogeneous",
            seed=5,
            tabu=TabuSearchParams(local_iterations=1, pairs_per_step=2, move_depth=1),
        )
        stale = make_tsw_result(problem, tsw_index=0, global_iteration=7)
        fresh = make_tsw_result(problem, tsw_index=1, global_iteration=0)
        kernel = ScriptedKernel(
            [
                (100, Tags.TSW_RESULT, stale),  # TSW pid 100: stale, its only message
                (101, Tags.TSW_RESULT, fresh),
            ]
        )
        result = kernel.run(master_process(ScriptedContext(), problem, params))
        assert isinstance(result, MasterResult)
        assert kernel.script == []  # every scripted message was consumed
        # the stale result was dropped: only the fresh one is recorded
        assert result.global_records[0].received_costs == (fresh.best_cost,)
        # both TSWs still received the shutdown broadcast
        stops = [send for send in kernel.sent if send.tag == Tags.STOP]
        assert {send.dst for send in stops} == {100, 101}

    def test_duplicate_current_round_result_is_counted_once(self, problem):
        """A duplicated report for the *current* round must not be recorded
        twice (double-counted costs/evaluations/trace points)."""
        params = ParallelSearchParams(
            num_tsws=2,
            clws_per_tsw=1,
            global_iterations=1,
            sync_mode="homogeneous",
            seed=5,
            tabu=TabuSearchParams(local_iterations=1, pairs_per_step=2, move_depth=1),
        )
        fresh_a = make_tsw_result(problem, tsw_index=0, global_iteration=0)
        fresh_b = make_tsw_result(problem, tsw_index=1, global_iteration=0)
        kernel = ScriptedKernel(
            [
                (100, Tags.TSW_RESULT, fresh_a),
                (100, Tags.TSW_RESULT, fresh_a),  # duplicate delivery
                (101, Tags.TSW_RESULT, fresh_b),
            ]
        )
        result = kernel.run(master_process(ScriptedContext(), problem, params))
        assert kernel.script == []
        assert result.global_records[0].received_costs == (
            fresh_a.best_cost,
            fresh_b.best_cost,
        )

    def test_genuine_result_accepted_after_stale_freed_the_slot(self, problem):
        """A stale duplicate frees TSW 0's pending slot; its genuine
        current-round report arriving afterwards must still be recorded."""
        params = ParallelSearchParams(
            num_tsws=2,
            clws_per_tsw=1,
            global_iterations=1,
            sync_mode="homogeneous",
            seed=5,
            tabu=TabuSearchParams(local_iterations=1, pairs_per_step=2, move_depth=1),
        )
        stale = make_tsw_result(problem, tsw_index=0, global_iteration=7)
        fresh_a = make_tsw_result(problem, tsw_index=0, global_iteration=0)
        fresh_b = make_tsw_result(problem, tsw_index=1, global_iteration=0)
        kernel = ScriptedKernel(
            [
                (100, Tags.TSW_RESULT, stale),    # frees TSW 0's slot
                (100, Tags.TSW_RESULT, fresh_a),  # genuine, slot already freed
                (101, Tags.TSW_RESULT, fresh_b),
            ]
        )
        result = kernel.run(master_process(ScriptedContext(), problem, params))
        assert kernel.script == []
        assert result.global_records[0].received_costs == (
            fresh_a.best_cost,
            fresh_b.best_cost,
        )


class TestTswStaleResult:
    def test_stale_clw_result_does_not_wedge_the_tsw(self, problem):
        """CLW 0 replies with a result for an earlier round; the TSW's collect
        loop must still finish the local iteration."""
        params = ParallelSearchParams(
            num_tsws=1,
            clws_per_tsw=2,
            global_iterations=1,
            sync_mode="homogeneous",
            diversify=False,
            seed=5,
            tabu=TabuSearchParams(local_iterations=1, pairs_per_step=2, move_depth=1),
        )
        num_cells = problem.num_cells
        tsw_range = partition_cells(num_cells, 1, scheme="contiguous", label_prefix="tsw")[0]
        clw_ranges = partition_cells(num_cells, 2, scheme="strided", label_prefix="clw")
        start = GlobalStart(
            global_iteration=0,
            solution=SolutionPayload.full_shipment(problem.random_solution(seed=3), 0),
            tabu_payload=None,
        )
        stale = ClwResult(
            clw_index=0, round_id=99, pairs=(), cost_before=1.0, cost_after=1.0,
            trials=0, interrupted=False,
        )
        fresh = ClwResult(
            clw_index=1, round_id=1, pairs=(), cost_before=1.0, cost_after=1.0,
            trials=0, interrupted=False,
        )
        kernel = ScriptedKernel(
            [
                (0, Tags.GLOBAL_START, start),
                (100, Tags.CLW_RESULT, stale),  # CLW pid 100: stale, its only message
                (101, Tags.CLW_RESULT, fresh),
                (0, Tags.STOP, None),
            ]
        )
        summary = kernel.run(
            tsw_process(
                ScriptedContext(),
                TswSetup(problem, params, 0, tsw_range, tuple(clw_ranges), seed=17),
            )
        )
        assert isinstance(summary, TswSummary)
        assert kernel.script == []
        assert summary.local_iterations_done == 1
        # the TSW still reported to its parent and stopped its CLWs
        assert any(send.tag == Tags.TSW_RESULT for send in kernel.sent)
        stops = [send for send in kernel.sent if send.tag == Tags.STOP]
        assert {send.dst for send in stops} == {100, 101}
