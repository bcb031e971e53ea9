"""Move attributes stored in the tabu short-term memory.

Tabu search does not memorise whole solutions (too expensive); it memorises
*attributes* of recent moves and forbids moves that would re-instate them.
The attribute of a swap move is the unordered pair of swapped cells, so a
recorded swap forbids undoing exactly the same exchange (the paper's
description, where a move is a swap of two cells).

A :class:`MoveAttribute` names one attribute in a tabu list's payload.  The
array-backed tabu list addresses attributes by a dense integer *index* —
``lo * num_cells + hi`` — computed in bulk for whole candidate batches by
:func:`pair_attribute_indices`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = [
    "MoveAttribute",
    "pair_attribute_indices",
]


@dataclass(frozen=True, slots=True)
class MoveAttribute:
    """A single tabu attribute.

    ``kind`` is ``"pair"``, the tag the tabu payload carries on the wire and
    in checkpoints; ``key`` is the canonical ``(min_cell, max_cell)`` tuple.
    """

    kind: str
    key: Tuple[int, ...]

    @classmethod
    def pair(cls, cell_a: int, cell_b: int) -> "MoveAttribute":
        """Attribute representing the unordered swap of two cells."""
        lo, hi = (cell_a, cell_b) if cell_a <= cell_b else (cell_b, cell_a)
        return cls(kind="pair", key=(lo, hi))


def pair_attribute_indices(pairs: np.ndarray, num_cells: int) -> np.ndarray:
    """Dense index of every pair attribute: ``min * num_cells + max``.

    ``pairs`` is an ``(n, 2)`` integer array of cell pairs; the result is an
    ``(n,)`` int64 array addressing the array-backed tabu list's pair-expiry
    vector.  The canonical (sorted) pair order makes the index orientation
    independent, matching :meth:`MoveAttribute.pair`.
    """
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    return lo * np.int64(num_cells) + hi
