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

from .solution import Placement

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

    def deltas_for_swaps(self, cells_a, cells_b) -> np.ndarray:
        """Area change of every candidate swap ``(a_i, b_i)`` in one batch.

        A swap only changes the area when the two cells sit in different rows
        and the widest row changes.  Instead of rebuilding the per-row sums
        per trial, the kernel precomputes the three widest rows once; for any
        pair at most two rows change, so the new maximum is
        ``max(new_row_a, new_row_b, widest untouched row)`` and the widest
        untouched row is always among the top three.
        """
        a = np.atleast_1d(np.asarray(cells_a, dtype=np.int64))
        b = np.atleast_1d(np.asarray(cells_b, dtype=np.int64))
        num_pairs = int(a.size)
        out = np.zeros(num_pairs, dtype=np.float64)
        if num_pairs == 0:
            return out
        slot_row = self._layout.slot_row
        cts = self._placement.cell_to_slot
        rows_a = slot_row[cts[a]]
        rows_b = slot_row[cts[b]]
        active = (a != b) & (rows_a != rows_b)
        if not active.any():
            return out
        rw = self._row_widths
        cur_max = float(rw.max())
        # top-3 rows by width, padded so two excluded rows always leave a value
        k = min(3, rw.size)
        top = np.argpartition(rw, rw.size - k)[rw.size - k:]
        top = top[np.argsort(rw[top])[::-1]]
        top_rows = np.full(3, -1, dtype=np.int64)
        top_vals = np.full(3, -np.inf, dtype=np.float64)
        top_rows[:k] = top
        top_vals[:k] = rw[top]

        ra = rows_a[active]
        rb = rows_b[active]
        shift = self._widths[b[active]] - self._widths[a[active]]
        new_a = rw[ra] + shift
        new_b = rw[rb] - shift
        untouched = np.where(
            (top_rows[0] != ra) & (top_rows[0] != rb),
            top_vals[0],
            np.where((top_rows[1] != ra) & (top_rows[1] != rb), top_vals[1], top_vals[2]),
        )
        new_max = np.maximum(np.maximum(new_a, new_b), untouched)
        scale = self._layout.num_rows * self._layout.spec.row_height
        out[active] = (new_max - cur_max) * scale
        return out

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
