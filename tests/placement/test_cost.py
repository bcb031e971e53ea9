"""Unit tests for the multi-objective cost evaluator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CostModelError
from repro.placement import (
    CostEvaluator,
    CostModelParams,
    Layout,
    ObjectiveVector,
    load_benchmark,
    random_placement,
)
from repro.placement.cost import make_evaluator


@pytest.fixture()
def evaluator():
    layout = Layout(load_benchmark("mini64"))
    placement = random_placement(layout, seed=5)
    return CostEvaluator(placement)


class TestObjectiveVector:
    def test_dominance(self):
        a = ObjectiveVector(wirelength=1.0, delay=1.0, area=1.0)
        b = ObjectiveVector(wirelength=2.0, delay=1.0, area=1.0)
        assert a.dominates(b)
        assert not b.dominates(a)
        assert not a.dominates(a)

    def test_as_dict_keys(self):
        vec = ObjectiveVector(wirelength=1.0, delay=2.0, area=3.0)
        assert set(vec.as_dict()) == {"wirelength", "delay", "area"}


class TestCostModelParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"wire_goal_factor": 1.5, "wire_upper_factor": 1.2},
            {"delay_goal_factor": 0.0},
            {"wire_weight": -1.0},
            {"beta": 1.5},
            {"aggregation": "bogus"},
            {"timing_refresh_interval": 0},
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(CostModelError):
            CostModelParams(**kwargs)


class TestCostEvaluator:
    def test_cost_in_unit_interval_for_fuzzy(self, evaluator):
        assert 0.0 <= evaluator.cost() <= 1.0

    def test_memberships_in_unit_interval(self, evaluator):
        for value in evaluator.memberships().values():
            assert 0.0 <= value <= 1.0

    def test_evaluate_swap_does_not_mutate(self, evaluator):
        before = evaluator.placement.assignment_tuple()
        cost_before = evaluator.cost()
        evaluator.evaluate_swap(1, 2)
        assert evaluator.placement.assignment_tuple() == before
        assert evaluator.cost() == pytest.approx(cost_before)

    def test_commit_swap_applies_and_tracks(self, evaluator):
        predicted = evaluator.evaluate_swap(1, 2)
        actual = evaluator.commit_swap(1, 2)
        assert actual == pytest.approx(predicted, rel=1e-6)
        evaluator.verify_consistency()

    def test_evaluation_counter_increments(self, evaluator):
        start = evaluator.evaluations
        evaluator.evaluate_swap(0, 1)
        evaluator.commit_swap(2, 3)
        assert evaluator.evaluations == start + 2

    def test_install_solution_rebuilds_consistently(self, evaluator):
        layout = evaluator.placement.layout
        other = random_placement(layout, seed=77)
        evaluator.install_solution(other.to_array())
        evaluator.verify_consistency()
        assert evaluator.placement.equals(other)

    def test_snapshot_is_copy(self, evaluator):
        snap = evaluator.snapshot()
        snap[0] = -1
        assert evaluator.placement.cell_to_slot[0] != -1

    def test_lower_wirelength_lowers_fuzzy_cost(self, evaluator):
        # find an improving swap by sampling
        rng = np.random.default_rng(0)
        base = evaluator.cost()
        found = False
        for _ in range(200):
            a, b = (int(x) for x in rng.integers(0, evaluator.placement.num_cells, 2))
            if evaluator.evaluate_swap(a, b) < base:
                found = True
                break
        assert found, "no improving swap found in 200 samples (unexpected for a random placement)"


class TestWeightedSumMode:
    def test_weighted_sum_reference_is_one(self):
        layout = Layout(load_benchmark("mini64"))
        placement = random_placement(layout, seed=5)
        evaluator = CostEvaluator(placement, CostModelParams(aggregation="weighted_sum"))
        # at the reference solution the normalised weighted sum equals 1
        assert evaluator.cost() == pytest.approx(1.0)

    def test_modes_agree_on_ordering(self):
        layout = Layout(load_benchmark("mini64"))
        fuzzy_eval = CostEvaluator(random_placement(layout, seed=5), CostModelParams())
        ws_eval = CostEvaluator(
            random_placement(layout, seed=5), CostModelParams(aggregation="weighted_sum")
        )
        # apply the same clearly-improving swap to both and compare direction
        rng = np.random.default_rng(1)
        for _ in range(200):
            a, b = (int(x) for x in rng.integers(0, fuzzy_eval.placement.num_cells, 2))
            d_fuzzy = fuzzy_eval.evaluate_swap(a, b) - fuzzy_eval.cost()
            d_ws = ws_eval.evaluate_swap(a, b) - ws_eval.cost()
            if abs(d_ws) > 1e-6:
                assert np.sign(d_fuzzy) == np.sign(d_ws) or d_fuzzy == 0.0
                break


class TestSharedReference:
    def test_shared_reference_makes_costs_comparable(self):
        layout = Layout(load_benchmark("mini64"))
        a = random_placement(layout, seed=1)
        b = random_placement(layout, seed=2)
        ref_eval = CostEvaluator(a.copy())
        reference = ref_eval.objectives()
        eval_a = CostEvaluator(a, reference=reference)
        eval_b = CostEvaluator(b, reference=reference)
        # both use the same fuzzy goals
        assert eval_a.aggregator.goals == eval_b.aggregator.goals

    def test_make_evaluator_helper(self):
        layout = Layout(load_benchmark("tiny16"))
        array = random_placement(layout, seed=3).to_array()
        evaluator = make_evaluator(layout, array)
        assert evaluator.placement.num_cells == layout.netlist.num_cells
