"""Move attributes stored in the tabu short-term memory.

Tabu search does not memorise whole solutions (too expensive); it memorises
*attributes* of recent moves and forbids moves that would re-instate them.
For the cell-placement swap move two natural attribute schemes exist:

* ``PAIR`` — the unordered pair of swapped cells; forbids undoing exactly the
  same exchange (the scheme used in the paper's description, where a move is
  a swap of two cells);
* ``CELL`` — each moved cell individually; more aggressive, forbids touching
  a recently moved cell at all.

A :class:`MoveAttribute` names one attribute in a tabu list's payload.  The
array-backed tabu list addresses attributes by a dense integer *index* —
``lo * num_cells + hi`` for pairs, the cell itself for cells — computed in
bulk for whole candidate batches by :func:`pair_attribute_indices`.  The
same ``num_cells``-strided code space would accommodate a future cell×slot
("slot") scheme without changing the vector layout.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = [
    "AttributeScheme",
    "MoveAttribute",
    "pair_attribute_indices",
]


class AttributeScheme(enum.Enum):
    """Which attributes a committed swap contributes to the tabu list."""

    PAIR = "pair"
    CELL = "cell"


@dataclass(frozen=True, slots=True)
class MoveAttribute:
    """A single tabu attribute.

    ``kind`` distinguishes pair attributes from single-cell attributes so the
    two schemes can coexist in one tabu list (e.g. during experimentation).
    ``key`` is a canonical tuple: ``(min_cell, max_cell)`` for pairs,
    ``(cell,)`` for cells.
    """

    kind: str
    key: Tuple[int, ...]

    @classmethod
    def pair(cls, cell_a: int, cell_b: int) -> "MoveAttribute":
        """Attribute representing the unordered swap of two cells."""
        lo, hi = (cell_a, cell_b) if cell_a <= cell_b else (cell_b, cell_a)
        return cls(kind="pair", key=(lo, hi))

    @classmethod
    def cell(cls, cell: int) -> "MoveAttribute":
        """Attribute representing a single moved cell."""
        return cls(kind="cell", key=(cell,))


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
