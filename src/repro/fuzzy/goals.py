"""Fuzzy goal-directed aggregation of multiple objectives.

A :class:`FuzzyGoal` wraps one crisp minimisation objective with a *goal*
value (the target the designer hopes to reach) and an *upper* value (beyond
which the solution is considered worthless for that objective).  The
membership of a crisp value ``v`` is 1 at or below the goal and falls
linearly to 0 at the upper value: ``(upper - v) / (upper - goal)`` clipped
to ``[0, 1]``.

A :class:`FuzzyGoalAggregator` evaluates a vector of objective values against
its goals and combines the memberships with Sait & Youssef's "fuzzy and-like"
ordered-weighted-averaging (OWA) operator:

    mu = beta * min(mu_i) + (1 - beta) * mean(mu_i)

With ``beta`` close to 1 the aggregation behaves like a strict fuzzy AND (the
worst objective dominates); with ``beta`` close to 0 it behaves like an
arithmetic mean (compensatory).  The mean term is weighted by the goals'
weights.  The scalar *cost* reported to the optimiser is ``1 - membership``
so that lower is better, as the tabu-search machinery expects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..errors import CostModelError

__all__ = ["FuzzyGoal", "FuzzyGoalAggregator"]


@dataclass(frozen=True, slots=True)
class FuzzyGoal:
    """Goal specification for one minimisation objective.

    Attributes
    ----------
    name:
        Objective name (e.g. ``"wirelength"``).
    goal:
        Crisp value considered fully satisfactory (membership 1).
    upper:
        Crisp value considered completely unsatisfactory (membership 0).
    weight:
        Relative importance used by weighted aggregations; must be positive.
    """

    name: str
    goal: float
    upper: float
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.upper <= self.goal:
            raise CostModelError(
                f"goal {self.name!r}: upper ({self.upper}) must exceed goal ({self.goal})"
            )
        if self.weight <= 0:
            raise CostModelError(f"goal {self.name!r}: weight must be positive, got {self.weight}")

    @classmethod
    def from_reference(
        cls, name: str, reference: float, *, goal_factor: float, upper_factor: float, weight: float = 1.0
    ) -> "FuzzyGoal":
        """Build a goal from a reference value and multiplicative factors.

        In the placement cost model the reference is the objective value of
        the initial solution: the goal is ``goal_factor * reference`` (e.g.
        0.6 — "reduce wirelength by 40%") and the upper bound is
        ``upper_factor * reference`` (e.g. 1.2 — "anything 20% worse than the
        start is worthless").
        """
        if reference < 0:
            raise CostModelError(f"goal {name!r}: reference must be non-negative, got {reference}")
        if not (0.0 < goal_factor < upper_factor):
            raise CostModelError(
                f"goal {name!r}: need 0 < goal_factor < upper_factor, got "
                f"{goal_factor} and {upper_factor}"
            )
        reference = max(reference, 1e-9)
        return cls(name=name, goal=goal_factor * reference, upper=upper_factor * reference, weight=weight)


class FuzzyGoalAggregator:
    """Combine several :class:`FuzzyGoal` memberships into one scalar cost.

    The aggregation has two forms over one set of constants: :meth:`cost`
    scores one objective vector and :meth:`cost_block` a block of them, one
    per column.  Both take the values in goal order and run the same
    operations in the same order, so a column's block cost is bit-identical
    to the scalar cost of that column.
    """

    def __init__(self, goals: Sequence[FuzzyGoal], *, beta: float = 0.7) -> None:
        if not goals:
            raise CostModelError("FuzzyGoalAggregator requires at least one goal")
        names = [g.name for g in goals]
        if len(set(names)) != len(names):
            raise CostModelError(f"duplicate goal names: {names}")
        if not (0.0 <= beta <= 1.0):
            raise CostModelError(f"beta must be in [0, 1], got {beta}")
        self._goals: Tuple[FuzzyGoal, ...] = tuple(goals)
        self._beta = float(beta)
        # Constants of both forms, built once: each goal's (goal, upper)
        # bounds and weight for the scalar form, and as one row per goal
        # its upper value, goal-to-upper span and weight for the block form.
        self._bounds = tuple((g.goal, g.upper) for g in self._goals)
        self._weights = tuple(g.weight for g in self._goals)
        self._upper = np.array([[g.upper] for g in self._goals], dtype=np.float64)
        self._span = np.array([[g.upper - g.goal] for g in self._goals], dtype=np.float64)
        self._weight = np.array([[g.weight] for g in self._goals], dtype=np.float64)
        self._weight_sum = float(np.add.reduce(self._weight[:, 0]))

    @property
    def goals(self) -> Tuple[FuzzyGoal, ...]:
        """The configured goals."""
        return self._goals

    @property
    def names(self) -> Tuple[str, ...]:
        """Objective names in aggregation order."""
        return tuple(g.name for g in self._goals)

    @property
    def beta(self) -> float:
        """OWA and-likeness parameter."""
        return self._beta

    def _check(self, values: Sequence[float]) -> None:
        if len(values) != len(self._bounds):
            raise CostModelError(
                f"expected {len(self._bounds)} objective values, one per goal, got {len(values)}"
            )

    def memberships(self, values: Sequence[float]) -> Tuple[float, ...]:
        """Per-goal memberships of one objective vector, in goal order."""
        self._check(values)
        return tuple(
            min(1.0, max(0.0, (upper - value) / (upper - goal)))
            for value, (goal, upper) in zip(values, self._bounds)
        )

    def cost(self, values: Sequence[float]) -> float:
        """Scalar cost in ``[0, 1]`` of one objective vector in goal order:
        ``1 - (beta * min + (1 - beta) * weighted mean)`` of its
        memberships, lower is better.

        The weighted memberships are added goal by goal, left to right, as
        :meth:`cost_block`'s axis-0 reduce adds its rows.
        """
        self._check(values)
        mus = []
        weighted = 0.0
        for value, (goal, upper), weight in zip(values, self._bounds, self._weights):
            scaled = (upper - value) / (upper - goal)
            mu = min(1.0, max(0.0, scaled))
            mus.append(mu)
            weighted += mu * weight
        weighted /= self._weight_sum
        beta = self._beta
        return 1.0 - (beta * min(mus) + (1.0 - beta) * weighted)

    def cost_block(self, values: np.ndarray) -> np.ndarray:
        """Scalar costs of a batch of objective vectors, one per column.

        ``values`` is a ``(goals, n)`` float64 block with one row per goal,
        in :attr:`names` order; it is overwritten.  Each column's cost is
        bit-identical to :meth:`cost` of that column: per goal
        ``(upper - v) / (upper - goal)`` clipped to ``[0, 1]`` (``clip`` and
        the scalar ``min``/``max`` differ at most in the sign of a zero
        membership, which no cost depends on), the weighted memberships
        summed goal by goal in row order (an axis-0 reduce adds rows left to
        right) and divided by the weight sum, then ``1 - (beta * min + (1 -
        beta) * mean)``.
        """
        mu = np.subtract(self._upper, values, out=values)
        mu /= self._span
        mu.clip(0.0, 1.0, out=mu)
        lowest = np.minimum.reduce(mu, axis=0)
        mu *= self._weight
        weighted = np.add.reduce(mu, axis=0)
        weighted /= self._weight_sum
        lowest *= self._beta
        weighted *= 1.0 - self._beta
        lowest += weighted
        return np.subtract(1.0, lowest, out=lowest)
