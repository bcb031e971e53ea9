"""Small fuzzy-logic substrate used by the multi-objective placement cost.

Public surface:

* the membership function —
  :class:`~repro.fuzzy.membership.DecreasingLinear`;
* goal-directed aggregation — :class:`~repro.fuzzy.goals.FuzzyGoal`,
  :class:`~repro.fuzzy.goals.FuzzyGoalAggregator`.
"""

from .goals import FuzzyGoal, FuzzyGoalAggregator
from .membership import DecreasingLinear

__all__ = [
    "FuzzyGoal",
    "FuzzyGoalAggregator",
    "DecreasingLinear",
]
