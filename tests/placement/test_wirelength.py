"""Unit and property-based tests for the HPWL wirelength objective."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.placement import Layout, SwapBatch, load_benchmark, random_placement
from repro.placement.wirelength import WirelengthState, full_hpwl, net_hpwl


@pytest.fixture(scope="module")
def placement():
    layout = Layout(load_benchmark("mini64"))
    return random_placement(layout, seed=21)


class TestFullHpwl:
    def test_per_net_matches_single_net_function(self, placement):
        per_net, total = full_hpwl(placement)
        for net_index in range(placement.netlist.num_nets):
            assert per_net[net_index] == pytest.approx(net_hpwl(placement, net_index))

    def test_total_is_weighted_sum(self, placement):
        per_net, total = full_hpwl(placement)
        expected = float(np.dot(per_net, placement.netlist.net_weights))
        assert total == pytest.approx(expected)

    def test_hpwl_non_negative_and_bounded(self, placement):
        per_net, _ = full_hpwl(placement)
        assert np.all(per_net >= 0)
        assert np.all(per_net <= placement.layout.half_perimeter())

    def test_two_pin_net_is_manhattan_distance(self):
        layout = Layout(load_benchmark("tiny16"))
        placement = random_placement(layout, seed=3)
        netlist = placement.netlist
        for net in netlist.nets:
            if net.degree != 2:
                continue
            a, b = net.members
            ax, ay = placement.position_of(a)
            bx, by = placement.position_of(b)
            assert net_hpwl(placement, net.index) == pytest.approx(abs(ax - bx) + abs(ay - by))
            break
        else:
            pytest.skip("no two-pin net in tiny16")


class TestIncrementalState:
    def test_initial_state_matches_full(self, placement):
        state = WirelengthState(placement)
        _, total = full_hpwl(placement)
        assert state.total == pytest.approx(total)

    def test_delta_matches_recomputation(self, placement):
        state = WirelengthState(placement)
        rng = np.random.default_rng(0)
        for _ in range(30):
            a, b = rng.integers(0, placement.num_cells, 2)
            delta = state.deltas_for_swaps(SwapBatch(placement, [(a, b)]))[0]
            placement.swap_cells(int(a), int(b))
            _, new_total = full_hpwl(placement)
            placement.swap_cells(int(a), int(b))  # restore
            assert delta == pytest.approx(new_total - state.total, abs=1e-9)

    def test_commit_keeps_cache_in_sync(self, placement):
        state = WirelengthState(placement)
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b = (int(x) for x in rng.integers(0, placement.num_cells, 2))
            placement.swap_cells(a, b)
            state.commit_swap(a, b)
        _, expected = full_hpwl(placement)
        assert state.total == pytest.approx(expected)

    def test_self_swap_has_zero_delta(self, placement):
        state = WirelengthState(placement)
        assert state.deltas_for_swaps(SwapBatch(placement, [(5, 5)]))[0] == 0.0

    def test_per_net_view_read_only(self, placement):
        state = WirelengthState(placement)
        with pytest.raises(ValueError):
            state.per_net[0] = 1.0


class TestIncrementalProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        swaps=st.lists(st.tuples(st.integers(0, 55), st.integers(0, 55)), min_size=1, max_size=20),
    )
    def test_incremental_equals_full_after_any_sequence(self, seed, swaps):
        layout = Layout(load_benchmark("highway"))
        placement = random_placement(layout, seed=seed)
        state = WirelengthState(placement)
        for a, b in swaps:
            placement.swap_cells(a, b)
            state.commit_swap(a, b)
        _, expected = full_hpwl(placement)
        assert state.total == pytest.approx(expected, rel=1e-9)
