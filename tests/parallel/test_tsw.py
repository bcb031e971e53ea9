"""Protocol tests for the Tabu Search Worker process.

A scripted master drives a real TSW (which spawns real CLWs) under the
discrete-event kernel and checks the global-iteration protocol.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.parallel import ParallelSearchParams
from repro.parallel.delta import SolutionPayload, decode_solution
from repro.parallel.messages import GlobalStart, ReportNow, Tags, TswSetup
from repro.parallel.tsw import tsw_process
from repro.placement import load_benchmark
from repro.problems.placement import PlacementProblem
from repro.pvm import SimKernel, homogeneous_cluster
from repro.tabu import TabuSearchParams, partition_cells

CIRCUIT = "mini64"


@pytest.fixture(scope="module")
def problem():
    return PlacementProblem.from_netlist(load_benchmark(CIRCUIT), reference_seed=0)


def make_params(**overrides) -> ParallelSearchParams:
    defaults = dict(
        num_tsws=2,
        clws_per_tsw=2,
        global_iterations=2,
        tabu=TabuSearchParams(local_iterations=3, pairs_per_step=3, move_depth=2),
    )
    defaults.update(overrides)
    return ParallelSearchParams(**defaults)


def spawn_tsw(ctx, problem, params, tsw_index=0, seed=7):
    tsw_ranges = partition_cells(problem.num_cells, params.num_tsws)
    clw_ranges = partition_cells(problem.num_cells, params.clws_per_tsw)
    return ctx.spawn(
        tsw_process,
        TswSetup(problem, params, tsw_index, tsw_ranges[tsw_index], tuple(clw_ranges), seed),
        name=f"tsw{tsw_index}",
    )


class TestTswProtocol:
    def test_one_result_per_global_iteration(self, problem):
        params = make_params()

        def scripted_master(ctx):
            tsw = yield spawn_tsw(ctx, problem, params)
            results = []
            solution = problem.random_solution(seed=1)
            for iteration in range(2):
                yield ctx.send(
                    tsw, Tags.GLOBAL_START,
                    GlobalStart(
                        global_iteration=iteration,
                        solution=SolutionPayload.full_shipment(solution, iteration),
                    ),
                )
                reply = yield ctx.recv(tag=Tags.TSW_RESULT)
                results.append(reply.payload)
                # reports may arrive as deltas against this round's broadcast
                solution = decode_solution(
                    reply.payload.best_solution,
                    solution,
                    expected_base_version=iteration,
                )
                assert solution is not None
            yield ctx.send(tsw, Tags.STOP)
            return results, tsw

        kernel = SimKernel(homogeneous_cluster(6))
        pid = kernel.spawn(scripted_master, name="master", machine_index=0)
        kernel.run()
        results, tsw_pid = kernel.result_of(pid)

        assert [r.global_iteration for r in results] == [0, 1]
        assert all(r.local_iterations_done == 3 for r in results)
        assert all(not r.interrupted for r in results)
        assert all(len(r.trace) == r.local_iterations_done for r in results)
        # the TSW improves on the initial random solution
        initial_cost = problem.make_evaluator(problem.random_solution(seed=1)).cost()
        assert results[-1].best_cost < initial_cost
        # summary returned on STOP
        summary = kernel.result_of(tsw_pid)
        assert summary.global_iterations_done == 2
        assert summary.local_iterations_done == 6

    def test_report_now_interrupts_local_iterations(self, problem):
        params = make_params(tabu=TabuSearchParams(local_iterations=50, pairs_per_step=3, move_depth=2))

        def scripted_master(ctx):
            tsw = yield spawn_tsw(ctx, problem, params)
            solution = problem.random_solution(seed=1)
            yield ctx.send(
                tsw,
                Tags.GLOBAL_START,
                GlobalStart(
                    global_iteration=0, solution=SolutionPayload.full_shipment(solution, 0)
                ),
            )
            # let the TSW get going, then demand an early report
            yield ctx.sleep(0.05)
            yield ctx.send(tsw, Tags.REPORT_NOW, ReportNow(round_id=0))
            reply = yield ctx.recv(tag=Tags.TSW_RESULT)
            yield ctx.send(tsw, Tags.STOP)
            return reply.payload

        kernel = SimKernel(homogeneous_cluster(6))
        pid = kernel.spawn(scripted_master, name="master", machine_index=0)
        kernel.run()
        result = kernel.result_of(pid)
        assert result.interrupted
        assert result.local_iterations_done < 50

    def test_adopts_broadcast_solution_and_tabu_list(self, problem):
        params = make_params(num_tsws=1, clws_per_tsw=1)

        def scripted_master(ctx):
            tsw = yield spawn_tsw(ctx, problem, params, tsw_index=0)
            solution = problem.random_solution(seed=1)
            yield ctx.send(
                tsw,
                Tags.GLOBAL_START,
                GlobalStart(
                    global_iteration=0, solution=SolutionPayload.full_shipment(solution, 0)
                ),
            )
            first = (yield ctx.recv(tag=Tags.TSW_RESULT)).payload
            # broadcast the returned best together with its tabu list (the
            # report may be a delta against this round's broadcast)
            first_best = decode_solution(
                first.best_solution, solution, expected_base_version=0
            )
            assert first_best is not None
            yield ctx.send(
                tsw,
                Tags.GLOBAL_START,
                GlobalStart(
                    global_iteration=1,
                    solution=SolutionPayload.full_shipment(first_best, 1),
                    tabu_payload=first.tabu_payload,
                ),
            )
            second = (yield ctx.recv(tag=Tags.TSW_RESULT)).payload
            yield ctx.send(tsw, Tags.STOP)
            return first, second

        kernel = SimKernel(homogeneous_cluster(4))
        pid = kernel.spawn(scripted_master, name="master", machine_index=0)
        kernel.run()
        first, second = kernel.result_of(pid)
        assert len(first.tabu_payload) > 0
        # the second round starts from the first round's best, so it can only improve
        assert second.best_cost <= first.best_cost + 1e-9
