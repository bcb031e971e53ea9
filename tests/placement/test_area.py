"""Unit and property-based tests for the area objective."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.placement import Layout, SwapBatch, load_benchmark, random_placement
from repro.placement.area import AreaState, full_area, row_widths


@pytest.fixture()
def placement():
    layout = Layout(load_benchmark("mini64"))
    return random_placement(layout, seed=31)


class TestFullArea:
    def test_row_widths_sum_to_total_width(self, placement):
        widths = row_widths(placement)
        assert widths.sum() == pytest.approx(placement.netlist.cell_widths.sum())

    def test_area_is_max_row_times_outline(self, placement):
        layout = placement.layout
        expected = row_widths(placement).max() * layout.num_rows * layout.spec.row_height
        assert full_area(placement) == pytest.approx(expected)

    def test_area_positive(self, placement):
        assert full_area(placement) > 0


class TestAreaState:
    def test_initial_total_matches_full(self, placement):
        state = AreaState(placement)
        assert state.total == pytest.approx(full_area(placement))

    def test_delta_matches_recomputation(self, placement):
        state = AreaState(placement)
        rng = np.random.default_rng(7)
        for _ in range(40):
            a, b = (int(x) for x in rng.integers(0, placement.num_cells, 2))
            delta = state.deltas_for_swaps(SwapBatch(placement, [(a, b)]))[0]
            placement.swap_cells(a, b)
            expected = full_area(placement) - state.total
            placement.swap_cells(a, b)
            assert delta == pytest.approx(expected, abs=1e-9)

    def test_commit_keeps_cache_in_sync(self, placement):
        state = AreaState(placement)
        rng = np.random.default_rng(8)
        for _ in range(60):
            a, b = (int(x) for x in rng.integers(0, placement.num_cells, 2))
            placement.swap_cells(a, b)
            state.commit_swap(a, b)
        assert state.total == pytest.approx(full_area(placement))
        assert state.per_row.sum() == pytest.approx(placement.netlist.cell_widths.sum())

    def test_same_row_swap_has_zero_delta(self, placement):
        state = AreaState(placement)
        rows = placement.cell_row()
        same_row = np.flatnonzero(rows == rows[0])
        if len(same_row) >= 2:
            assert state.deltas_for_swaps(SwapBatch(placement, [same_row[:2]]))[0] == 0.0

    def test_per_row_read_only(self, placement):
        state = AreaState(placement)
        with pytest.raises(ValueError):
            state.per_row[0] = 0.0


class TestAreaProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 500),
        swaps=st.lists(st.tuples(st.integers(0, 55), st.integers(0, 55)), max_size=25),
    )
    def test_incremental_equals_full_after_any_sequence(self, seed, swaps):
        layout = Layout(load_benchmark("highway"))
        placement = random_placement(layout, seed=seed)
        state = AreaState(placement)
        for a, b in swaps:
            placement.swap_cells(a, b)
            state.commit_swap(a, b)
        assert state.total == pytest.approx(full_area(placement), rel=1e-9)
