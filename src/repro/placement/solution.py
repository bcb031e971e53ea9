"""Placement solution: the assignment of cells to layout slots.

A :class:`Placement` is the mutable search state of the tabu search.  It keeps
both directions of the assignment (``cell → slot`` and ``slot → cell``) as
NumPy integer arrays so that

* the wirelength/timing objectives can gather all cell coordinates in one
  vectorised indexing operation, and
* a *swap move* — the paper's elementary move: exchange the locations of two
  cells — is O(1) to apply and to undo.

Placements are cheap to copy (two integer arrays), which matters because the
parallel algorithm ships candidate solutions between CLWs, TSWs and the
master many times per global iteration.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .._rng import make_rng
from ..errors import PlacementError
from .layout import Layout

__all__ = ["Placement", "SwapBatch", "random_placement"]

#: Sentinel stored in ``slot_to_cell`` for an empty slot.
EMPTY_SLOT: int = -1


class Placement:
    """Assignment of every cell to a distinct layout slot.

    Parameters
    ----------
    layout:
        The slot geometry.
    cell_to_slot:
        Array of length ``num_cells`` giving the slot of each cell.  Must be a
        permutation of distinct, in-range slot indices.
    """

    __slots__ = ("_layout", "_cell_to_slot", "_slot_to_cell")

    def __init__(self, layout: Layout, cell_to_slot: Sequence[int] | np.ndarray) -> None:
        self._layout = layout
        cts = np.asarray(cell_to_slot, dtype=np.int64).copy()
        n_cells = layout.netlist.num_cells
        if cts.shape != (n_cells,):
            raise PlacementError(
                f"cell_to_slot must have shape ({n_cells},), got {cts.shape}"
            )
        if cts.min(initial=0) < 0 or cts.max(initial=-1) >= layout.num_slots:
            raise PlacementError("cell_to_slot contains out-of-range slot indices")
        if len(np.unique(cts)) != n_cells:
            raise PlacementError("cell_to_slot assigns two cells to the same slot")
        self._cell_to_slot = cts
        stc = np.full(layout.num_slots, EMPTY_SLOT, dtype=np.int64)
        stc[cts] = np.arange(n_cells, dtype=np.int64)
        self._slot_to_cell = stc

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def layout(self) -> Layout:
        """The slot geometry this placement refers to."""
        return self._layout

    @property
    def netlist(self):
        """The circuit being placed."""
        return self._layout.netlist

    @property
    def num_cells(self) -> int:
        """Number of placed cells."""
        return self._cell_to_slot.shape[0]

    @property
    def cell_to_slot(self) -> np.ndarray:
        """Slot index of each cell (read-only view)."""
        view = self._cell_to_slot.view()
        view.flags.writeable = False
        return view

    @property
    def slot_to_cell(self) -> np.ndarray:
        """Cell index in each slot, ``-1`` when empty (read-only view)."""
        view = self._slot_to_cell.view()
        view.flags.writeable = False
        return view

    def slot_of(self, cell: int) -> int:
        """Slot currently holding ``cell``."""
        return int(self._cell_to_slot[cell])

    def cell_x(self) -> np.ndarray:
        """x coordinate of every cell (new array, length ``num_cells``)."""
        return self._layout.slot_x[self._cell_to_slot]

    def cell_y(self) -> np.ndarray:
        """y coordinate of every cell (new array, length ``num_cells``)."""
        return self._layout.slot_y[self._cell_to_slot]

    def cell_row(self) -> np.ndarray:
        """Row index of every cell (new array, length ``num_cells``)."""
        return self._layout.slot_row[self._cell_to_slot]

    def position_of(self, cell: int) -> Tuple[float, float]:
        """``(x, y)`` coordinate of a single cell."""
        slot = self._cell_to_slot[cell]
        return float(self._layout.slot_x[slot]), float(self._layout.slot_y[slot])

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def swap_cells(self, cell_a: int, cell_b: int) -> None:
        """Exchange the slots of ``cell_a`` and ``cell_b`` (the paper's move).

        Swapping a cell with itself is a no-op.  The operation is its own
        inverse, which the tabu-search move machinery relies on.
        """
        if cell_a == cell_b:
            return
        n = self.num_cells
        if not (0 <= cell_a < n and 0 <= cell_b < n):
            raise PlacementError(f"swap_cells: cell indices ({cell_a}, {cell_b}) out of range")
        slot_a = self._cell_to_slot[cell_a]
        slot_b = self._cell_to_slot[cell_b]
        self._cell_to_slot[cell_a] = slot_b
        self._cell_to_slot[cell_b] = slot_a
        self._slot_to_cell[slot_a] = cell_b
        self._slot_to_cell[slot_b] = cell_a

    def set_assignment(self, cell_to_slot: Sequence[int] | np.ndarray) -> None:
        """Replace the whole assignment in place (used when a better solution
        arrives over the simulated network).

        The new assignment is validated exactly like in the constructor.
        """
        cts = np.asarray(cell_to_slot, dtype=np.int64)
        n_cells = self.num_cells
        if cts.shape != (n_cells,):
            raise PlacementError(
                f"set_assignment: expected shape ({n_cells},), got {cts.shape}"
            )
        if cts.min(initial=0) < 0 or cts.max(initial=-1) >= self._layout.num_slots:
            raise PlacementError("set_assignment: out-of-range slot indices")
        if len(np.unique(cts)) != n_cells:
            raise PlacementError("set_assignment: two cells share the same slot")
        self._cell_to_slot[:] = cts
        self._slot_to_cell[:] = EMPTY_SLOT
        self._slot_to_cell[cts] = np.arange(n_cells, dtype=np.int64)

    def save_state(self) -> Tuple[np.ndarray, np.ndarray]:
        """Copies of both assignment directions, for :meth:`restore_state`.

        Unlike :meth:`to_array` / :meth:`set_assignment` the save/restore pair
        skips re-validation and re-derivation of ``slot_to_cell`` — it exists
        so the tabu search can rewind trial compound moves cheaply.
        """
        return self._cell_to_slot.copy(), self._slot_to_cell.copy()

    def restore_state(self, state: Tuple[np.ndarray, np.ndarray]) -> None:
        """Restore an assignment snapshot produced by :meth:`save_state`."""
        cell_to_slot, slot_to_cell = state
        self._cell_to_slot[:] = cell_to_slot
        self._slot_to_cell[:] = slot_to_cell

    # ------------------------------------------------------------------ #
    # copying / serialisation / comparison
    # ------------------------------------------------------------------ #
    def copy(self) -> "Placement":
        """Deep copy (the arrays are duplicated)."""
        clone = object.__new__(Placement)
        clone._layout = self._layout
        clone._cell_to_slot = self._cell_to_slot.copy()
        clone._slot_to_cell = self._slot_to_cell.copy()
        return clone

    def assignment_tuple(self) -> Tuple[int, ...]:
        """Hashable snapshot of the assignment (used by tests and tabu memory)."""
        return tuple(int(s) for s in self._cell_to_slot)

    def to_array(self) -> np.ndarray:
        """Return a copy of the ``cell → slot`` array (for message passing)."""
        return self._cell_to_slot.copy()

    @classmethod
    def from_array(cls, layout: Layout, array: np.ndarray) -> "Placement":
        """Rebuild a placement from an array produced by :meth:`to_array`."""
        return cls(layout, array)

    def equals(self, other: "Placement") -> bool:
        """Whether both placements assign every cell to the same slot."""
        return bool(np.array_equal(self._cell_to_slot, other._cell_to_slot))

    def validate(self) -> None:
        """Re-check internal consistency (used by property-based tests)."""
        stc = self._slot_to_cell
        cts = self._cell_to_slot
        occupied = np.flatnonzero(stc != EMPTY_SLOT)
        if len(occupied) != self.num_cells:
            raise PlacementError("slot_to_cell occupancy does not match number of cells")
        if not np.array_equal(cts[stc[occupied]], occupied):
            raise PlacementError("cell_to_slot and slot_to_cell are inconsistent")

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Placement(circuit={self.netlist.name!r}, cells={self.num_cells})"


class SwapBatch:
    """A batch of candidate swaps with the context all three objectives read.

    Gathered once per batch against the placement as it stands, so the
    wirelength, timing and area kernels each start from the same arrays
    instead of converting and gathering the pairs again:

    * ``ends`` — the ``2 * size`` endpoints interleaved ``a0, b0, a1, b1,
      ...``: endpoint ``e`` belongs to pair ``e >> 1`` and its swap partner
      is endpoint ``e ^ 1`` (the reshape of an ``(n, 2)`` pair array, so no
      copy);
    * ``distinct`` — ``a != b`` per pair (self-pairs change nothing);
    * ``xy`` — the endpoints' slot coordinates, x in row 0 and y in row 1;
    * ``rows`` — the endpoints' layout rows.

    A batch only describes trial swaps: nothing is mutated.
    """

    __slots__ = ("size", "ends", "distinct", "xy", "rows")

    def __init__(self, placement: Placement, pairs) -> None:
        ends = np.asarray(pairs, dtype=np.int64).reshape(-1)
        if ends.size % 2:
            raise PlacementError(f"a swap batch needs (n, 2) pairs, got {ends.size} cells")
        layout = placement.layout
        slots = placement._cell_to_slot.take(ends)
        xy = np.empty((2, ends.size), dtype=np.float64)
        np.take(layout.slot_x, slots, out=xy[0])
        np.take(layout.slot_y, slots, out=xy[1])
        self.size = ends.size >> 1
        self.ends = ends
        self.distinct = ends[0::2] != ends[1::2]
        self.xy = xy
        self.rows = layout.slot_row.take(slots)


def random_placement(layout: Layout, seed: int = 0) -> Placement:
    """Create a uniformly random initial placement.

    The paper's master process generates one initial solution and hands the
    *same* solution to every TSW; determinism here ensures all workers start
    identically for a given seed.
    """
    rng = make_rng(seed, "initial-placement", layout.netlist.name)
    slots = rng.permutation(layout.num_slots)[: layout.netlist.num_cells]
    return Placement(layout, slots)
