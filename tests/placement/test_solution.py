"""Unit and property-based tests for the placement solution."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlacementError
from repro.placement import Layout, Placement, load_benchmark, random_placement


@pytest.fixture(scope="module")
def layout():
    return Layout(load_benchmark("mini64"))


class TestConstruction:
    def test_random_placement_valid(self, layout):
        placement = random_placement(layout, seed=1)
        placement.validate()
        assert placement.num_cells == layout.netlist.num_cells

    def test_random_placement_deterministic(self, layout):
        a = random_placement(layout, seed=5)
        b = random_placement(layout, seed=5)
        assert a.equals(b)

    def test_random_placement_seed_matters(self, layout):
        a = random_placement(layout, seed=5)
        b = random_placement(layout, seed=6)
        assert not a.equals(b)

    def test_rejects_wrong_shape(self, layout):
        with pytest.raises(PlacementError, match="shape"):
            Placement(layout, np.arange(3))

    def test_rejects_out_of_range_slots(self, layout):
        arr = np.arange(layout.netlist.num_cells)
        arr[0] = layout.num_slots + 10
        with pytest.raises(PlacementError, match="out-of-range"):
            Placement(layout, arr)

    def test_rejects_duplicate_slots(self, layout):
        arr = np.arange(layout.netlist.num_cells)
        arr[1] = arr[0]
        with pytest.raises(PlacementError, match="same slot"):
            Placement(layout, arr)


class TestSwap:
    def test_swap_exchanges_slots(self, layout):
        placement = random_placement(layout, seed=2)
        slot_a, slot_b = placement.slot_of(3), placement.slot_of(7)
        placement.swap_cells(3, 7)
        assert placement.slot_of(3) == slot_b
        assert placement.slot_of(7) == slot_a
        placement.validate()

    def test_swap_is_involution(self, layout):
        placement = random_placement(layout, seed=2)
        before = placement.assignment_tuple()
        placement.swap_cells(3, 7)
        placement.swap_cells(3, 7)
        assert placement.assignment_tuple() == before

    def test_self_swap_is_noop(self, layout):
        placement = random_placement(layout, seed=2)
        before = placement.assignment_tuple()
        placement.swap_cells(4, 4)
        assert placement.assignment_tuple() == before

    def test_swap_out_of_range_rejected(self, layout):
        placement = random_placement(layout, seed=2)
        with pytest.raises(PlacementError):
            placement.swap_cells(0, placement.num_cells + 5)

    def test_apply_and_undo_swaps(self, layout):
        # a swap sequence is undone by the same swaps in reverse order
        placement = random_placement(layout, seed=3)
        before = placement.assignment_tuple()
        swaps = [(0, 1), (2, 3), (1, 3)]
        for a, b in swaps:
            placement.swap_cells(a, b)
        assert placement.assignment_tuple() != before
        for a, b in reversed(swaps):
            placement.swap_cells(a, b)
        assert placement.assignment_tuple() == before


class TestCopyAndSerialisation:
    def test_copy_is_independent(self, layout):
        placement = random_placement(layout, seed=4)
        clone = placement.copy()
        placement.swap_cells(0, 1)
        assert not placement.equals(clone)

    def test_array_round_trip(self, layout):
        placement = random_placement(layout, seed=4)
        rebuilt = Placement.from_array(layout, placement.to_array())
        assert rebuilt.equals(placement)

    def test_set_assignment(self, layout):
        a = random_placement(layout, seed=4)
        b = random_placement(layout, seed=9)
        a.set_assignment(b.to_array())
        assert a.equals(b)
        a.validate()

    def test_set_assignment_rejects_duplicates(self, layout):
        placement = random_placement(layout, seed=4)
        bad = placement.to_array()
        bad[1] = bad[0]
        with pytest.raises(PlacementError):
            placement.set_assignment(bad)

    def test_positions_match_layout(self, layout):
        placement = random_placement(layout, seed=4)
        xs, ys = placement.cell_x(), placement.cell_y()
        for cell in range(0, placement.num_cells, 7):
            x, y = placement.position_of(cell)
            assert x == pytest.approx(xs[cell])
            assert y == pytest.approx(ys[cell])


class TestSwapProperties:
    @settings(max_examples=50, deadline=None)
    @given(swaps=st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)), max_size=30))
    def test_any_swap_sequence_preserves_validity(self, swaps):
        layout = Layout(load_benchmark("mini64"))
        placement = random_placement(layout, seed=11)
        for a, b in swaps:
            placement.swap_cells(a, b)
        placement.validate()
        # every cell still occupies exactly one slot
        assert len(set(placement.assignment_tuple())) == placement.num_cells

    @settings(max_examples=50, deadline=None)
    @given(swaps=st.lists(st.tuples(st.integers(0, 63), st.integers(0, 63)), max_size=30))
    def test_undo_restores_original(self, swaps):
        layout = Layout(load_benchmark("mini64"))
        placement = random_placement(layout, seed=11)
        before = placement.assignment_tuple()
        for a, b in swaps + swaps[::-1]:
            placement.swap_cells(a, b)
        assert placement.assignment_tuple() == before
