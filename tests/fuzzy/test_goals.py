"""Unit tests for the fuzzy goal-directed aggregation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CostModelError
from repro.fuzzy import FuzzyGoal, FuzzyGoalAggregator


def make_aggregator(beta: float = 0.7) -> FuzzyGoalAggregator:
    return FuzzyGoalAggregator(
        [
            FuzzyGoal(name="wirelength", goal=100.0, upper=200.0, weight=2.0),
            FuzzyGoal(name="delay", goal=10.0, upper=20.0),
            FuzzyGoal(name="area", goal=50.0, upper=100.0),
        ],
        beta=beta,
    )


class TestFuzzyGoal:
    def test_membership_shape(self):
        goal = FuzzyGoal(name="x", goal=10.0, upper=20.0)
        assert goal.membership(5.0) == 1.0
        assert goal.membership(15.0) == pytest.approx(0.5)
        assert goal.membership(25.0) == 0.0

    def test_invalid_bounds_rejected(self):
        with pytest.raises(CostModelError):
            FuzzyGoal(name="x", goal=10.0, upper=10.0)

    def test_invalid_weight_rejected(self):
        with pytest.raises(CostModelError):
            FuzzyGoal(name="x", goal=10.0, upper=20.0, weight=0.0)

    def test_from_reference(self):
        goal = FuzzyGoal.from_reference("x", 100.0, goal_factor=0.5, upper_factor=1.2)
        assert goal.goal == pytest.approx(50.0)
        assert goal.upper == pytest.approx(120.0)

    def test_from_reference_invalid_factors(self):
        with pytest.raises(CostModelError):
            FuzzyGoal.from_reference("x", 100.0, goal_factor=1.3, upper_factor=1.2)

    def test_from_reference_negative_reference(self):
        with pytest.raises(CostModelError):
            FuzzyGoal.from_reference("x", -1.0, goal_factor=0.5, upper_factor=1.2)


class TestAggregator:
    def test_all_goals_met_gives_zero_cost(self):
        aggregator = make_aggregator()
        values = {"wirelength": 50.0, "delay": 5.0, "area": 25.0}
        assert aggregator.membership(values) == pytest.approx(1.0)
        assert aggregator.cost(values) == pytest.approx(0.0)

    def test_all_goals_missed_gives_unit_cost(self):
        aggregator = make_aggregator()
        values = {"wirelength": 500.0, "delay": 50.0, "area": 500.0}
        assert aggregator.cost(values) == pytest.approx(1.0)

    def test_cost_decreases_when_an_objective_improves(self):
        aggregator = make_aggregator()
        worse = {"wirelength": 180.0, "delay": 15.0, "area": 80.0}
        better = {"wirelength": 150.0, "delay": 15.0, "area": 80.0}
        assert aggregator.cost(better) < aggregator.cost(worse)

    def test_missing_objective_rejected(self):
        aggregator = make_aggregator()
        with pytest.raises(CostModelError, match="missing objective"):
            aggregator.membership({"wirelength": 100.0})

    def test_duplicate_goal_names_rejected(self):
        goal = FuzzyGoal(name="x", goal=1.0, upper=2.0)
        with pytest.raises(CostModelError, match="duplicate"):
            FuzzyGoalAggregator([goal, goal])

    def test_empty_goals_rejected(self):
        with pytest.raises(CostModelError):
            FuzzyGoalAggregator([])

    def test_beta_one_reduces_to_worst_objective(self):
        aggregator = make_aggregator(beta=1.0)
        values = {"wirelength": 150.0, "delay": 10.0, "area": 50.0}
        worst = min(aggregator.memberships(values).values())
        assert aggregator.membership(values) == pytest.approx(worst)

    def test_beta_zero_is_the_weighted_mean(self):
        aggregator = make_aggregator(beta=0.0)
        values = {"wirelength": 150.0, "delay": 15.0, "area": 100.0}
        # memberships 0.5, 0.5, 0.0 with weights 2, 1, 1
        assert aggregator.membership(values) == pytest.approx((2 * 0.5 + 0.5 + 0.0) / 4)

    @pytest.mark.parametrize("beta", [-0.1, 1.5])
    def test_beta_outside_unit_interval_rejected(self, beta):
        with pytest.raises(CostModelError):
            make_aggregator(beta=beta)

    def test_batch_matches_scalar_membership(self):
        aggregator = make_aggregator()
        batch = {
            "wirelength": np.array([50.0, 150.0, 180.0, 500.0]),
            "delay": np.array([5.0, 15.0, 12.5, 50.0]),
            "area": np.array([25.0, 100.0, 62.0, 500.0]),
        }
        scalar = [
            aggregator.membership({name: float(values[k]) for name, values in batch.items()})
            for k in range(4)
        ]
        block = np.array([batch[name] for name in aggregator.names])
        assert aggregator.cost_block(block).tolist() == [1.0 - mu for mu in scalar]

    def test_names_property(self):
        assert make_aggregator().names == ("wirelength", "delay", "area")

    @settings(max_examples=100, deadline=None)
    @given(
        wirelength=st.floats(0.0, 1000.0),
        delay=st.floats(0.0, 100.0),
        area=st.floats(0.0, 500.0),
        beta=st.floats(0.0, 1.0),
    )
    def test_membership_between_worst_and_weighted_mean(self, wirelength, delay, area, beta):
        aggregator = make_aggregator(beta=beta)
        values = {"wirelength": wirelength, "delay": delay, "area": area}
        mus = aggregator.memberships(values)
        mean = (2 * mus["wirelength"] + mus["delay"] + mus["area"]) / 4
        result = aggregator.membership(values)
        assert min(mus.values()) - 1e-12 <= result <= mean + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(
        wirelength=st.floats(0.0, 1000.0),
        delay=st.floats(0.0, 100.0),
        area=st.floats(0.0, 500.0),
    )
    def test_cost_always_in_unit_interval(self, wirelength, delay, area):
        aggregator = make_aggregator()
        cost = aggregator.cost({"wirelength": wirelength, "delay": delay, "area": area})
        assert 0.0 <= cost <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(
        base=st.floats(100.0, 200.0),
        improvement=st.floats(0.0, 50.0),
    )
    def test_monotone_in_each_objective(self, base, improvement):
        aggregator = make_aggregator()
        worse = {"wirelength": base, "delay": 12.0, "area": 70.0}
        better = {"wirelength": base - improvement, "delay": 12.0, "area": 70.0}
        assert aggregator.cost(better) <= aggregator.cost(worse) + 1e-12
