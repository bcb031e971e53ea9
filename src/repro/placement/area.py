"""Area objective for row-based standard-cell placement.

With cells of varying widths assigned to rows of slots, the chip outline must
be wide enough to hold the *widest* row.  The area objective therefore is::

    area = max_row_width * num_rows * row_height

which rewards placements that balance total cell width evenly across rows.
:class:`AreaState` maintains the per-row width sums incrementally so that a
swap's area delta costs O(1).
"""

from __future__ import annotations

import numpy as np

from .solution import Placement, SwapBatch

__all__ = ["row_widths", "full_area", "AreaState"]


def row_widths(placement: Placement) -> np.ndarray:
    """Total cell width placed in each row (length ``num_rows``)."""
    rows = placement.cell_row()
    widths = placement.netlist.cell_widths
    return np.bincount(rows, weights=widths, minlength=placement.layout.num_rows)


def full_area(placement: Placement) -> float:
    """Chip area implied by the widest row."""
    layout = placement.layout
    widest = float(row_widths(placement).max())
    return widest * layout.num_rows * layout.spec.row_height


class AreaState:
    """Incremental area cost bound to one :class:`Placement`."""

    def __init__(self, placement: Placement) -> None:
        self._placement = placement
        self._layout = placement.layout
        self._widths = placement.netlist.cell_widths
        self.rebuild()

    def rebuild(self) -> None:
        """Recompute the per-row width sums from scratch."""
        self._row_widths = row_widths(self._placement)

    @property
    def per_row(self) -> np.ndarray:
        """Current per-row width sums (read-only view)."""
        view = self._row_widths.view()
        view.flags.writeable = False
        return view

    @property
    def max_row_width(self) -> float:
        """Width of the widest row."""
        return float(self._row_widths.max())

    @property
    def total(self) -> float:
        """Current area value."""
        return self.max_row_width * self._layout.num_rows * self._layout.spec.row_height

    # ------------------------------------------------------------------ #
    # snapshot / restore (used by the search loop to try candidates cheaply)
    # ------------------------------------------------------------------ #
    def save_state(self) -> np.ndarray:
        """Copy of the per-row width sums, restorable via :meth:`restore_state`."""
        return self._row_widths.copy()

    def restore_state(self, state: np.ndarray) -> None:
        """Restore a snapshot (the placement must be restored separately)."""
        self._row_widths = state.copy()

    # ------------------------------------------------------------------ #
    def _rows_of(self, cell_a: int, cell_b: int) -> tuple[int, int]:
        slot_row = self._layout.slot_row
        cts = self._placement.cell_to_slot
        return int(slot_row[cts[cell_a]]), int(slot_row[cts[cell_b]])

    def deltas_for_swaps(self, batch: SwapBatch, out: np.ndarray | None = None) -> np.ndarray:
        """Area change of every candidate swap of ``batch``.

        Written into ``out`` (every entry; a new array when omitted) and
        returned.  A swap only changes the area when the two cells sit in
        different rows (a self-swap never does) and the widest row changes.
        At most two rows change, so the new maximum is ``max(new_row_a,
        new_row_b, widest untouched row)``.  The widest untouched row is the
        widest row, or the runner-up when the swap touches the widest.  When
        it touches the runner-up too, the runner-up is still no wider than
        the wider of the two new rows (one of them gains what the other
        loses, and the sums round monotonically), so it cannot change the
        maximum.  Every pair is priced; pairs within one row are zeroed by
        a multiply.
        """
        if out is None:
            out = np.empty(batch.size, dtype=np.float64)
        rw = self._row_widths
        order = np.argsort(rw)
        widest = rw[order[-1]]
        runner_up = rw[order[-2]] if rw.size > 1 else -np.inf
        rows = batch.rows
        on_widest = rows == order[-1]
        untouched = np.where(on_widest[0::2] | on_widest[1::2], runner_up, widest)
        widths = self._widths.take(batch.ends)
        shift = widths[1::2] - widths[0::2]
        row_width = rw.take(rows)
        new_max = np.maximum(row_width[0::2] + shift, row_width[1::2] - shift)
        np.maximum(new_max, untouched, out=new_max)
        new_max -= widest
        new_max *= self._layout.num_rows * self._layout.spec.row_height
        return np.multiply(new_max, rows[0::2] != rows[1::2], out=out)

    def apply_moved_cells(self, cells: np.ndarray, old_rows: np.ndarray) -> None:
        """Update row sums after a whole swap sequence moved ``cells``.

        ``old_rows`` are the rows the cells occupied *before* the sequence;
        the placement must already reflect the final assignment.  Intermediate
        hops cancel, so only the net start→end row change of each touched
        cell matters.
        """
        cells = np.asarray(cells, dtype=np.int64)
        if cells.size == 0:
            return
        new_rows = self._layout.slot_row[self._placement.cell_to_slot[cells]]
        moved = new_rows != old_rows
        if not moved.any():
            return
        widths = self._widths[cells[moved]]
        rows = self._layout.num_rows
        self._row_widths += np.bincount(
            new_rows[moved], weights=widths, minlength=rows
        ) - np.bincount(old_rows[moved], weights=widths, minlength=rows)

    def commit_swap(self, cell_a: int, cell_b: int) -> None:
        """Update the row sums after the placement swap was applied.

        Note: the placement has already been swapped, so the rows read from
        the placement are the *new* rows of each cell.
        """
        if cell_a == cell_b:
            return
        new_row_a, new_row_b = self._rows_of(cell_a, cell_b)
        if new_row_a == new_row_b:
            return
        wa = float(self._widths[cell_a])
        wb = float(self._widths[cell_b])
        # cell_a now sits in new_row_a (formerly cell_b's row) and vice versa.
        self._row_widths[new_row_a] += wa
        self._row_widths[new_row_b] -= wa
        self._row_widths[new_row_b] += wb
        self._row_widths[new_row_a] -= wb
