"""End-to-end tests of the full master/TSW/CLW search through the public runner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ParallelSearchError
from repro.parallel import ParallelSearchParams, build_problem, run_parallel_search
from repro.placement import load_benchmark
from repro.pvm import heterogeneous_cluster, homogeneous_cluster, paper_cluster
from repro.tabu import TabuSearchParams

CIRCUIT = "mini64"


def quick_params(**overrides) -> ParallelSearchParams:
    defaults = dict(
        num_tsws=2,
        clws_per_tsw=2,
        global_iterations=2,
        tabu=TabuSearchParams(local_iterations=3, pairs_per_step=3, move_depth=2),
        seed=11,
    )
    defaults.update(overrides)
    return ParallelSearchParams(**defaults)


@pytest.fixture(scope="module")
def netlist():
    return load_benchmark(CIRCUIT)


class TestRunnerBasics:
    def test_run_improves_on_initial_solution(self, netlist):
        result = run_parallel_search(netlist, quick_params())
        assert result.best_cost < result.initial_cost
        assert 0.0 < result.improvement < 1.0
        assert result.virtual_runtime > 0
        assert result.instance == CIRCUIT

    def test_best_solution_is_a_valid_assignment(self, netlist):
        result = run_parallel_search(netlist, quick_params())
        solution = result.best_solution
        assert solution.shape == (netlist.num_cells,)
        assert len(np.unique(solution)) == netlist.num_cells

    def test_reported_cost_matches_reevaluation(self, netlist):
        params = quick_params()
        problem = build_problem(netlist, params)
        result = run_parallel_search(netlist, params, problem=problem)
        evaluator = problem.make_evaluator(result.best_solution)
        assert evaluator.exact_cost() == pytest.approx(result.best_cost, rel=1e-6)

    def test_trace_is_monotone_envelope(self, netlist):
        result = run_parallel_search(netlist, quick_params())
        times = [t for t, _ in result.trace]
        costs = [c for _, c in result.trace]
        assert times == sorted(times)
        assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))
        assert costs[-1] == pytest.approx(min(costs))

    def test_global_records_one_per_iteration(self, netlist):
        params = quick_params(global_iterations=3)
        result = run_parallel_search(netlist, params)
        assert len(result.global_records) == 3
        for record in result.global_records:
            assert len(record.received_costs) == params.num_tsws

    def test_process_count_matches_topology(self, netlist):
        params = quick_params(num_tsws=3, clws_per_tsw=2)
        result = run_parallel_search(netlist, params)
        # master + TSWs + CLWs
        assert result.sim_stats.num_processes == 1 + 3 + 6

    def test_time_to_reach_queries_trace(self, netlist):
        result = run_parallel_search(netlist, quick_params())
        final = result.best_cost
        assert result.time_to_reach(final) is not None
        assert result.time_to_reach(final * 0.01) is None

    def test_unknown_backend_rejected(self, netlist):
        with pytest.raises(ParallelSearchError):
            run_parallel_search(netlist, quick_params(), backend="mpi")  # type: ignore[arg-type]


class TestDeterminism:
    def test_same_seed_same_result(self, netlist):
        a = run_parallel_search(netlist, quick_params(seed=3))
        b = run_parallel_search(netlist, quick_params(seed=3))
        assert a.best_cost == pytest.approx(b.best_cost)
        assert np.array_equal(a.best_solution, b.best_solution)
        assert a.virtual_runtime == pytest.approx(b.virtual_runtime)
        assert a.trace == b.trace

    def test_different_seed_differs(self, netlist):
        a = run_parallel_search(netlist, quick_params(seed=3))
        b = run_parallel_search(netlist, quick_params(seed=4))
        assert not np.array_equal(a.best_solution, b.best_solution)


class TestSyncModes:
    def test_heterogeneous_interrupts_on_heterogeneous_cluster(self, netlist):
        cluster = heterogeneous_cluster(num_high=2, num_medium=2, num_low=2, load_jitter=0.2)
        params = quick_params(num_tsws=4, clws_per_tsw=1, sync_mode="heterogeneous")
        result = run_parallel_search(netlist, params, cluster=cluster)
        interrupted = sum(record.interrupted_tsws for record in result.global_records)
        assert interrupted > 0

    def test_homogeneous_never_interrupts(self, netlist):
        cluster = heterogeneous_cluster(num_high=2, num_medium=2, num_low=2, load_jitter=0.2)
        params = quick_params(num_tsws=4, clws_per_tsw=1, sync_mode="homogeneous")
        result = run_parallel_search(netlist, params, cluster=cluster)
        interrupted = sum(record.interrupted_tsws for record in result.global_records)
        assert interrupted == 0

    def test_heterogeneous_is_faster_on_unbalanced_cluster(self):
        # A deliberately unbalanced cluster and deep, non-early-accepting
        # compound moves give the early-report mechanism room to cut work.
        netlist = load_benchmark("small200")
        cluster = heterogeneous_cluster(num_high=2, num_medium=2, num_low=4, load_jitter=0.3)
        shared = dict(
            num_tsws=4,
            clws_per_tsw=3,
            global_iterations=2,
            seed=11,
            tabu=TabuSearchParams(
                local_iterations=4, pairs_per_step=5, move_depth=6, early_accept=False
            ),
        )
        params_het = ParallelSearchParams(sync_mode="heterogeneous", **shared)
        params_hom = ParallelSearchParams(sync_mode="homogeneous", **shared)
        problem = build_problem(netlist, params_het)
        het = run_parallel_search(netlist, params_het, cluster=cluster, problem=problem)
        hom = run_parallel_search(netlist, params_hom, cluster=cluster, problem=problem)
        assert het.virtual_runtime < hom.virtual_runtime
        # CLWs are actually interrupted in the heterogeneous run, never in the
        # homogeneous one
        def clw_interruptions(result):
            return sum(
                info.result.interruptions
                for info in result.process_infos
                if "." in info.name and info.result is not None
            )

        assert clw_interruptions(het) > 0
        assert clw_interruptions(hom) == 0


class TestBackends:
    def test_threads_backend_produces_comparable_quality(self, netlist):
        params = quick_params(num_tsws=2, clws_per_tsw=1)
        simulated = run_parallel_search(netlist, params, backend="simulated")
        threaded = run_parallel_search(
            netlist, params, backend="threads", cluster=homogeneous_cluster(4)
        )
        assert threaded.best_cost < threaded.initial_cost
        # same protocol, same cost model: final quality in the same ballpark
        assert abs(threaded.best_cost - simulated.best_cost) < 0.25

    def test_single_worker_configuration_runs(self, netlist):
        # a few extra local iterations: a lone 3-pair/depth-2 worker must
        # first recover the cost its diversification step gave up, and the
        # quick_params budget leaves that to seed luck
        params = quick_params(
            num_tsws=1,
            clws_per_tsw=1,
            tabu=TabuSearchParams(local_iterations=8, pairs_per_step=3, move_depth=2),
        )
        result = run_parallel_search(netlist, params)
        assert result.best_cost < result.initial_cost
        assert result.sim_stats.num_processes == 3
