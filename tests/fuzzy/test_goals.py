"""Unit tests for the fuzzy goal-directed aggregation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CostModelError
from repro.fuzzy import FuzzyGoal, FuzzyGoalAggregator
from repro.placement.cost import CostModelParams, ObjectiveVector, _WeightedSum

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def make_aggregator(beta: float = 0.7) -> FuzzyGoalAggregator:
    return FuzzyGoalAggregator(
        [
            FuzzyGoal(name="wirelength", goal=100.0, upper=200.0, weight=2.0),
            FuzzyGoal(name="delay", goal=10.0, upper=20.0),
            FuzzyGoal(name="area", goal=50.0, upper=100.0),
        ],
        beta=beta,
    )


def membership(goal: float, upper: float, value: float) -> float:
    """Membership of ``value`` under the single goal ``(goal, upper)``."""
    (mu,) = FuzzyGoalAggregator([FuzzyGoal(name="x", goal=goal, upper=upper)]).memberships(
        (value,)
    )
    return mu


class TestFuzzyGoal:
    def test_membership_shape(self):
        assert membership(10.0, 20.0, 5.0) == 1.0
        assert membership(10.0, 20.0, 15.0) == pytest.approx(0.5)
        assert membership(10.0, 20.0, 25.0) == 0.0

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


class TestMembership:
    """The per-goal membership: 1 up to the goal, 0 from the upper value on."""

    def test_plateau_values(self):
        assert membership(10.0, 20.0, 5.0) == 1.0
        assert membership(10.0, 20.0, 10.0) == 1.0
        assert membership(10.0, 20.0, 20.0) == 0.0
        assert membership(10.0, 20.0, 25.0) == 0.0
        assert membership(10.0, 20.0, 15.0) == pytest.approx(0.5)

    @settings(max_examples=100, deadline=None)
    @given(value=finite_floats)
    def test_membership_always_in_unit_interval(self, value):
        assert 0.0 <= membership(2.0, 7.0, value) <= 1.0

    @settings(max_examples=50, deadline=None)
    @given(a=finite_floats, b=finite_floats)
    def test_monotonically_decreasing(self, a, b):
        lo, hi = sorted((a, b))
        assert membership(2.0, 7.0, lo) >= membership(2.0, 7.0, hi)


class TestAggregator:
    def test_all_goals_met_gives_zero_cost(self):
        aggregator = make_aggregator()
        values = (50.0, 5.0, 25.0)
        assert aggregator.memberships(values) == (1.0, 1.0, 1.0)
        assert aggregator.cost(values) == pytest.approx(0.0)

    def test_all_goals_missed_gives_unit_cost(self):
        aggregator = make_aggregator()
        values = (500.0, 50.0, 500.0)
        assert aggregator.cost(values) == pytest.approx(1.0)

    def test_cost_decreases_when_an_objective_improves(self):
        aggregator = make_aggregator()
        worse = (180.0, 15.0, 80.0)
        better = (150.0, 15.0, 80.0)
        assert aggregator.cost(better) < aggregator.cost(worse)

    def test_missing_objective_rejected(self):
        aggregator = make_aggregator()
        for values in ((100.0,), (100.0, 10.0, 50.0, 1.0)):
            with pytest.raises(CostModelError, match="one per goal"):
                aggregator.cost(values)
            with pytest.raises(CostModelError, match="one per goal"):
                aggregator.memberships(values)

    def test_duplicate_goal_names_rejected(self):
        goal = FuzzyGoal(name="x", goal=1.0, upper=2.0)
        with pytest.raises(CostModelError, match="duplicate"):
            FuzzyGoalAggregator([goal, goal])

    def test_empty_goals_rejected(self):
        with pytest.raises(CostModelError):
            FuzzyGoalAggregator([])

    def test_beta_one_reduces_to_worst_objective(self):
        aggregator = make_aggregator(beta=1.0)
        values = (150.0, 10.0, 50.0)
        worst = min(aggregator.memberships(values))
        assert 1.0 - aggregator.cost(values) == pytest.approx(worst)

    def test_beta_zero_is_the_weighted_mean(self):
        aggregator = make_aggregator(beta=0.0)
        values = (150.0, 15.0, 100.0)
        # memberships 0.5, 0.5, 0.0 with weights 2, 1, 1
        assert 1.0 - aggregator.cost(values) == pytest.approx((2 * 0.5 + 0.5 + 0.0) / 4)

    @pytest.mark.parametrize("beta", [-0.1, 1.5])
    def test_beta_outside_unit_interval_rejected(self, beta):
        with pytest.raises(CostModelError):
            make_aggregator(beta=beta)

    def test_batch_matches_scalar_membership(self):
        aggregator = make_aggregator()
        block = np.array(
            [
                [50.0, 150.0, 180.0, 500.0],
                [5.0, 15.0, 12.5, 50.0],
                [25.0, 100.0, 62.0, 500.0],
            ]
        )
        scalar = [aggregator.cost(tuple(column)) for column in block.T.tolist()]
        assert aggregator.cost_block(block).tolist() == scalar

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
        values = (wirelength, delay, area)
        mus = aggregator.memberships(values)
        mean = (2 * mus[0] + mus[1] + mus[2]) / 4
        result = 1.0 - aggregator.cost(values)
        assert min(mus) - 1e-12 <= result <= mean + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(
        wirelength=st.floats(0.0, 1000.0),
        delay=st.floats(0.0, 100.0),
        area=st.floats(0.0, 500.0),
    )
    def test_cost_always_in_unit_interval(self, wirelength, delay, area):
        aggregator = make_aggregator()
        cost = aggregator.cost((wirelength, delay, area))
        assert 0.0 <= cost <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(
        base=st.floats(100.0, 200.0),
        improvement=st.floats(0.0, 50.0),
    )
    def test_monotone_in_each_objective(self, base, improvement):
        aggregator = make_aggregator()
        worse = (base, 12.0, 70.0)
        better = (base - improvement, 12.0, 70.0)
        assert aggregator.cost(better) <= aggregator.cost(worse) + 1e-12


@st.composite
def scoring_cases(draw):
    """Three goals with unequal weights, a beta, and a ``(3, n)`` block of
    objective vectors whose values sit exactly at 0, a goal or an upper
    bound, below the goal, between the two, or beyond the upper bound."""
    goals = [draw(st.floats(0.5, 1e4)) for _ in range(3)]
    uppers = [goal * draw(st.floats(1.01, 3.0)) for goal in goals]
    weights = [draw(st.floats(0.1, 5.0)) for _ in range(3)]
    beta = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))

    def value(goal, upper):
        return st.one_of(
            st.sampled_from([0.0, goal, upper]),
            st.floats(0.0, goal),
            st.floats(goal, upper),
            st.floats(upper, 4.0 * upper),
        )

    columns = draw(
        st.lists(
            st.tuples(*(value(g, u) for g, u in zip(goals, uppers))), min_size=1, max_size=16
        )
    )
    return goals, uppers, weights, beta, np.array(columns, dtype=np.float64).T.copy()


def assert_forms_agree(scorer, block: np.ndarray) -> None:
    """``scorer.cost`` of every column equals that column of ``cost_block``."""
    scalar = [scorer.cost(tuple(column)) for column in block.T.tolist()]
    assert scorer.cost_block(block.copy()).tolist() == scalar


class TestScalarAndBlockForms:
    """Each aggregation mode's scalar and block forms agree bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(case=scoring_cases())
    def test_fuzzy_aggregator(self, case):
        goals, uppers, weights, beta, block = case
        names = ("wirelength", "delay", "area")
        aggregator = FuzzyGoalAggregator(
            [
                FuzzyGoal(name=name, goal=goal, upper=upper, weight=weight)
                for name, goal, upper, weight in zip(names, goals, uppers, weights)
            ],
            beta=beta,
        )
        assert_forms_agree(aggregator, block)

    @settings(max_examples=150, deadline=None)
    @given(case=scoring_cases())
    def test_weighted_sum(self, case):
        goals, _uppers, weights, _beta, block = case
        params = CostModelParams(
            wire_weight=weights[0], delay_weight=weights[1], area_weight=weights[2],
            aggregation="weighted_sum",
        )
        assert_forms_agree(_WeightedSum(params, ObjectiveVector(*goals)), block)
