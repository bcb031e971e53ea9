"""Small fuzzy-logic substrate used by the multi-objective placement cost.

Public surface: goal-directed aggregation —
:class:`~repro.fuzzy.goals.FuzzyGoal` and
:class:`~repro.fuzzy.goals.FuzzyGoalAggregator`.
"""

from .goals import FuzzyGoal, FuzzyGoalAggregator

__all__ = [
    "FuzzyGoal",
    "FuzzyGoalAggregator",
]
