"""Fuzzy goal-directed aggregation of multiple objectives.

A :class:`FuzzyGoal` wraps one crisp minimisation objective with a *goal*
value (the target the designer hopes to reach) and an *upper* value (beyond
which the solution is considered worthless for that objective).  The
membership of a crisp value is 1 at or below the goal and falls linearly to 0
at the upper value.

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
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from ..errors import CostModelError
from .membership import DecreasingLinear

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

    def membership(self, value: float) -> float:
        """Membership of ``value`` in the fuzzy set 'meets this goal'."""
        return DecreasingLinear(self.goal, self.upper).grade(value)

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
    """Combine several :class:`FuzzyGoal` memberships into one scalar cost."""

    def __init__(self, goals: Sequence[FuzzyGoal], *, beta: float = 0.7) -> None:
        if not goals:
            raise CostModelError("FuzzyGoalAggregator requires at least one goal")
        names = [g.name for g in goals]
        if len(set(names)) != len(names):
            raise CostModelError(f"duplicate goal names: {names}")
        if not (0.0 <= beta <= 1.0):
            raise CostModelError(f"beta must be in [0, 1], got {beta}")
        self._goals: Tuple[FuzzyGoal, ...] = tuple(goals)
        self._beta = beta
        # Hot-path constants for cost_block, one row per goal: each goal's
        # upper value, its goal-to-upper span and its weight, precomputed
        # once so a batch pays no per-goal Python work.
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

    def memberships(self, values: Mapping[str, float]) -> Dict[str, float]:
        """Per-objective memberships for a dict of crisp values."""
        missing = [g.name for g in self._goals if g.name not in values]
        if missing:
            raise CostModelError(f"missing objective values for goals: {missing}")
        return {g.name: g.membership(float(values[g.name])) for g in self._goals}

    def membership(self, values: Mapping[str, float]) -> float:
        """Aggregate membership (1 = all goals met) of a crisp objective vector."""
        mus = self.memberships(values)
        weights = np.array([g.weight for g in self._goals], dtype=np.float64)
        raw = np.array([mus[g.name] for g in self._goals], dtype=np.float64)
        # weight by repeating each membership proportionally in the mean term:
        # OWA over the weighted memberships' expansion is approximated by a
        # weighted mean in the compensatory term while min stays unweighted.
        beta = self._beta
        weighted_mean = float(np.average(raw, weights=weights))
        return float(beta * raw.min() + (1.0 - beta) * weighted_mean)

    def cost(self, values: Mapping[str, float]) -> float:
        """Scalar cost in ``[0, 1]``: ``1 - membership`` (lower is better)."""
        return 1.0 - self.membership(values)

    def cost_block(self, values: np.ndarray) -> np.ndarray:
        """Scalar costs of a batch of objective vectors, one per column.

        ``values`` is a ``(goals, n)`` float64 block with one row per goal,
        in :attr:`names` order; it is overwritten.  Each column's cost is
        bit-identical to :meth:`cost` of that column: per goal
        ``(upper - v) / (upper - goal)`` clipped to ``[0, 1]`` (``clip``,
        as the scalar membership does, not ``minimum``/``maximum``, which
        may differ on a signed zero), the weighted memberships summed goal
        by goal in row order (an axis-0 reduce adds rows left to right) and
        divided by the weight sum, then ``1 - (beta * min + (1 - beta) *
        mean)``.
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
