"""Unit tests for the shared placement-problem handle."""

from __future__ import annotations

import numpy as np
import pytest

import repro.parallel
from repro.placement import CostModelParams, load_benchmark
from repro.problems.placement import PlacementProblem


@pytest.fixture(scope="module")
def problem():
    return PlacementProblem.from_netlist(load_benchmark("mini64"), reference_seed=1)


class TestPlacementProblem:
    def test_package_alias_is_the_placement_domain_class(self):
        assert repro.PlacementProblem is PlacementProblem
        # the engine package exports no problem domain
        assert not hasattr(repro.parallel, "PlacementProblem")

    def test_reference_matches_layout_and_netlist(self, problem):
        assert problem.num_cells == 64
        assert problem.layout.netlist is problem.netlist

    def test_random_solution_deterministic(self, problem):
        a = problem.random_solution(seed=5)
        b = problem.random_solution(seed=5)
        assert np.array_equal(a, b)

    def test_make_evaluator_uses_shared_reference(self, problem):
        solution = problem.random_solution(seed=2)
        evaluator_a = problem.make_evaluator(solution)
        evaluator_b = problem.make_evaluator(problem.random_solution(seed=3))
        assert evaluator_a.reference == problem.reference
        assert evaluator_a.aggregator.goals == evaluator_b.aggregator.goals

    def test_evaluators_are_independent(self, problem):
        solution = problem.random_solution(seed=2)
        evaluator_a = problem.make_evaluator(solution)
        evaluator_b = problem.make_evaluator(solution.copy())
        evaluator_a.commit_swap(0, 1)
        assert not evaluator_a.placement.equals(evaluator_b.placement)

    def test_install_work_units_scales_with_circuit(self):
        small = PlacementProblem.from_netlist(load_benchmark("tiny16"))
        large = PlacementProblem.from_netlist(load_benchmark("c532"))
        assert large.install_work_units() > small.install_work_units()
        assert small.install_work_units() >= 2.0

    def test_custom_cost_params_respected(self):
        params = CostModelParams(aggregation="weighted_sum")
        problem = PlacementProblem.from_netlist(load_benchmark("tiny16"), cost_params=params)
        assert problem.cost_params.aggregation == "weighted_sum"
