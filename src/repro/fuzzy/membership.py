"""Fuzzy membership function.

The multi-objective placement cost in the paper follows the fuzzy
goal-directed search of Sait, Youssef & Ali: each crisp objective value
(wirelength, delay, area) is mapped to a *membership* in the fuzzy set
"good solution with respect to this objective".  Memberships lie in
``[0, 1]`` with 1 meaning "meets or beats the goal".

Every objective is minimised, so the one shape the mapping needs is
:class:`DecreasingLinear`, used by the goal aggregation in
:mod:`repro.fuzzy.goals`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from ..errors import CostModelError

__all__ = ["DecreasingLinear"]

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True, slots=True)
class DecreasingLinear:
    """Membership 1 below ``low``, 0 above ``high``, linear in between.

    This is the shape used for *minimisation* objectives: a value at or below
    the goal (``low``) is fully satisfactory, a value at or beyond ``high`` is
    completely unsatisfactory.
    """

    low: float
    high: float

    def __post_init__(self) -> None:
        if not (self.high > self.low):
            raise CostModelError(
                f"DecreasingLinear requires high > low, got low={self.low}, high={self.high}"
            )

    def __call__(self, value: ArrayLike) -> ArrayLike:
        scaled = (self.high - np.asarray(value, dtype=np.float64)) / (self.high - self.low)
        result = np.clip(scaled, 0.0, 1.0)
        return float(result) if np.isscalar(value) else result

    def grade(self, value: float) -> float:
        """Scalar convenience wrapper around :meth:`__call__`."""
        return float(self(float(value)))
