"""Protocol tests for the Candidate List Worker process.

A scripted parent process drives a real CLW under the discrete-event kernel
and checks the wire protocol: one result per task, correct pair structure,
response to early-report requests, and clean shutdown.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.parallel.clw import clw_process
from repro.parallel.delta import SolutionPayload
from repro.parallel.messages import ClwSetup, ClwTask, ReportNow, Tags
from repro.placement import load_benchmark
from repro.problems.placement import PlacementProblem
from repro.pvm import SimKernel, homogeneous_cluster
from repro.tabu import TabuSearchParams, full_range, partition_cells


@pytest.fixture(scope="module")
def problem():
    return PlacementProblem.from_netlist(load_benchmark("mini64"), reference_seed=0)


def full_task(round_id, solution):
    """A task shipping ``solution`` in full, versioned by its round."""
    return ClwTask(round_id=round_id, solution=SolutionPayload.full_shipment(solution, round_id))


def run_scripted_parent(problem, parent_body):
    """Spawn ``parent_body`` under a fresh kernel and return its result."""
    kernel = SimKernel(homogeneous_cluster(4))
    pid = kernel.spawn(parent_body, name="scripted-parent", machine_index=0)
    kernel.run()
    return kernel.result_of(pid), kernel


class TestClwTaskHandling:
    def test_one_result_per_task_with_valid_pairs(self, problem):
        params = TabuSearchParams(pairs_per_step=4, move_depth=3)

        def parent(ctx):
            clw = yield ctx.spawn(
                clw_process, ClwSetup(problem, params, full_range(problem.num_cells), 0, 123),
                name="clw0",
            )
            results = []
            for round_id in range(1, 4):
                solution = problem.random_solution(seed=round_id)
                yield ctx.send(clw, Tags.CLW_TASK, full_task(round_id, solution))
                reply = yield ctx.recv(tag=Tags.CLW_RESULT)
                results.append(reply.payload)
            yield ctx.send(clw, Tags.STOP)
            summary_holder = []
            return results

        results, kernel = run_scripted_parent(problem, parent)
        assert len(results) == 3
        for round_id, result in enumerate(results, start=1):
            assert result.round_id == round_id
            assert result.clw_index == 0
            assert 1 <= len(result.pairs) <= 3
            assert result.trials >= 4
            for a, b in result.pairs:
                assert 0 <= a < problem.num_cells
                assert 0 <= b < problem.num_cells
                assert a != b
            assert not result.interrupted

    def test_replaying_pairs_reproduces_reported_cost(self, problem):
        params = TabuSearchParams(pairs_per_step=4, move_depth=2)

        def parent(ctx):
            clw = yield ctx.spawn(
                clw_process,
                ClwSetup(problem, params, full_range(problem.num_cells), 0, 5),
                name="clw0",
            )
            solution = problem.random_solution(seed=9)
            yield ctx.send(clw, Tags.CLW_TASK, full_task(1, solution))
            reply = yield ctx.recv(tag=Tags.CLW_RESULT)
            yield ctx.send(clw, Tags.STOP)
            return solution, reply.payload

        (solution, result), _ = run_scripted_parent(problem, parent)
        evaluator = problem.make_evaluator(solution)
        assert evaluator.cost() == pytest.approx(result.cost_before, rel=1e-6)
        for a, b in result.pairs:
            evaluator.commit_swap(a, b)
        assert evaluator.cost() == pytest.approx(result.cost_after, rel=1e-2)

    def test_restricted_range_is_respected(self, problem):
        params = TabuSearchParams(pairs_per_step=3, move_depth=3, early_accept=False)
        clw_range = partition_cells(problem.num_cells, 4)[0]

        def parent(ctx):
            clw = yield ctx.spawn(
                clw_process, ClwSetup(problem, params, clw_range, 0, 11), name="clw0"
            )
            yield ctx.send(
                clw, Tags.CLW_TASK,
                full_task(1, problem.random_solution(seed=1)),
            )
            reply = yield ctx.recv(tag=Tags.CLW_RESULT)
            yield ctx.send(clw, Tags.STOP)
            return reply.payload

        result, _ = run_scripted_parent(problem, parent)
        range_cells = set(clw_range.cells)
        for a, b in result.pairs:
            assert a in range_cells or b in range_cells

    def test_stop_returns_summary(self, problem):
        params = TabuSearchParams(pairs_per_step=2, move_depth=1)

        def parent(ctx):
            clw = yield ctx.spawn(
                clw_process,
                ClwSetup(problem, params, full_range(problem.num_cells), 3, 7),
                name="clw3",
            )
            yield ctx.send(
                clw, Tags.CLW_TASK, full_task(1, problem.random_solution(seed=1))
            )
            yield ctx.recv(tag=Tags.CLW_RESULT)
            yield ctx.send(clw, Tags.STOP)
            return clw

        clw_pid, kernel = run_scripted_parent(problem, parent)
        summary = kernel.result_of(clw_pid)
        assert summary.clw_index == 3
        assert summary.tasks_done == 1
        assert summary.trials >= 2

    def test_stale_report_now_is_ignored(self, problem):
        params = TabuSearchParams(pairs_per_step=2, move_depth=2)

        def parent(ctx):
            clw = yield ctx.spawn(
                clw_process,
                ClwSetup(problem, params, full_range(problem.num_cells), 0, 3),
                name="clw0",
            )
            # a report request for a round that never existed must not break anything
            yield ctx.send(clw, Tags.REPORT_NOW, ReportNow(round_id=0))
            yield ctx.send(
                clw, Tags.CLW_TASK, full_task(1, problem.random_solution(seed=4))
            )
            reply = yield ctx.recv(tag=Tags.CLW_RESULT)
            yield ctx.send(clw, Tags.STOP)
            return reply.payload

        result, _ = run_scripted_parent(problem, parent)
        assert result.round_id == 1
        assert len(result.pairs) >= 1
