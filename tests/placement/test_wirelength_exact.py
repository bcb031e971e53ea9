"""Exactness of the next-inner HPWL caches under every path that writes them.

The batch kernel prices a trial swap from each net's cached bbox edges and
their next-inner values, with no fallback, so a stale cache would misprice
trials without raising.  These tests drive a :class:`CostEvaluator` through
every cache-writing path — scalar ``commit_swap``, bulk ``apply_swaps`` with
and without exact timing, ``save_state``/``restore_state`` and
``install_solution`` — on dense and forced-CSR incidence.  After every step a
batch must equal the frozen oracle bit for bit (the oracle derives its bboxes
from the placement alone), and ``verify_consistency`` must pass.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.kernels import reference_caches, wirelength_reference
from repro.placement import (
    CostEvaluator,
    Layout,
    LayoutSpec,
    NetlistBuilder,
    Placement,
    SwapBatch,
    load_benchmark,
    random_placement,
)
from repro.placement.wirelength import WirelengthState, full_hpwl, net_bboxes

CASES = [
    ("mini64", "dense"),
    ("mini64", "csr"),
    ("c532", "dense"),
    ("c532", "csr"),
]


def _make_evaluator(circuit: str, incidence: str, seed: int) -> CostEvaluator:
    placement = random_placement(Layout(load_benchmark(circuit)), seed=seed)
    with pytest.MonkeyPatch.context() as patch:
        if incidence == "csr":
            patch.setattr(WirelengthState, "INCIDENCE_BUDGET", 0)
        evaluator = CostEvaluator(placement)
    assert evaluator._wirelength.incidence_mode == incidence
    return evaluator


def _batch(netlist, rng: np.random.Generator):
    """Random pairs plus the awkward ones: self-pairs, two pins of one net
    (which share that net) and both pins of two-pin nets."""
    n = netlist.num_cells
    ptr = netlist.net_ptr
    flat = netlist.flat_members
    nets = rng.integers(0, netlist.num_nets, 8)
    two_pin = np.flatnonzero(netlist.net_degrees == 2)
    pins = rng.choice(two_pin, size=4)
    selves = rng.integers(0, n, 4)
    a = np.concatenate([rng.integers(0, n, 32), flat[ptr[nets]], flat[ptr[pins]], selves])
    b = np.concatenate(
        [rng.integers(0, n, 32), flat[ptr[nets + 1] - 1], flat[ptr[pins] + 1], selves]
    )
    return a.astype(np.int64), b.astype(np.int64)


def _ops(num_cells: int):
    cell = st.integers(0, num_cells - 1)
    return st.lists(
        st.one_of(
            st.tuples(st.just("commit"), cell, cell),
            st.tuples(
                st.just("apply"), st.lists(st.tuples(cell, cell), max_size=6), st.booleans()
            ),
            st.tuples(st.just("save")),
            st.tuples(st.just("restore")),
            st.tuples(st.just("install"), st.integers(0, 10_000)),
        ),
        min_size=1,
        max_size=12,
    )


def _assert_exact(evaluator: CostEvaluator, rng: np.random.Generator) -> None:
    state = evaluator._wirelength
    a, b = _batch(evaluator.placement.netlist, rng)
    batch = SwapBatch(evaluator.placement, np.column_stack((a, b)))
    assert np.array_equal(state.deltas_for_swaps(batch), wirelength_reference(state, a, b))
    evaluator.verify_consistency()


@pytest.mark.parametrize("circuit,incidence", CASES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_batches_match_the_oracle_after_every_cache_write(circuit, incidence, data):
    evaluator = _make_evaluator(circuit, incidence, data.draw(st.integers(0, 1000)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    layout = evaluator.placement.layout
    saved = evaluator.save_state()
    _assert_exact(evaluator, rng)
    for op in data.draw(_ops(evaluator.num_cells)):
        if op[0] == "commit":
            evaluator.commit_swap(op[1], op[2])
        elif op[0] == "apply":
            evaluator.apply_swaps(op[1], exact_timing=op[2])
        elif op[0] == "save":
            saved = evaluator.save_state()
        elif op[0] == "restore":
            evaluator.restore_state(saved)
        else:
            evaluator.install_solution(random_placement(layout, seed=op[1]).cell_to_slot)
        _assert_exact(evaluator, rng)


# ---------------------------------------------------------------------- #
# hand-placed nets: the next-inner value in the two degenerate shapes
# ---------------------------------------------------------------------- #
def _grid(nets, slots) -> Placement:
    """Twelve cells on a 3-row x 4-slot grid, cell ``i`` at ``slots[i]``.

    Slot ``s`` sits at ``x = s % 4 + 0.5``, ``y = 4 * (s // 4) + 2``.
    """
    builder = NetlistBuilder("grid12")
    for index in range(12):
        builder.add_cell(f"c{index}")
    for name, members in nets.items():
        builder.add_net(
            name, driver=f"c{members[0]}", sinks=[f"c{m}" for m in members[1:]]
        )
    layout = Layout(builder.build(), LayoutSpec(aspect_ratio=4.0))
    assert (layout.num_rows, layout.slots_per_row) == (3, 4)
    return Placement(layout, np.asarray(slots, dtype=np.int64))


def _check_trials(placement: Placement, pairs) -> None:
    """Every trial equals the oracle bit for bit and a full recompute."""
    state = WirelengthState(placement)
    a = np.array([p[0] for p in pairs], dtype=np.int64)
    b = np.array([p[1] for p in pairs], dtype=np.int64)
    deltas = state.deltas_for_swaps(SwapBatch(placement, np.column_stack((a, b))))
    assert np.array_equal(deltas, wirelength_reference(state, a, b))
    for (cell_a, cell_b), delta in zip(pairs, deltas):
        placement.swap_cells(cell_a, cell_b)
        _, total = full_hpwl(placement)
        placement.swap_cells(cell_a, cell_b)
        assert delta == pytest.approx(total - state.total, abs=1e-12)


class TestNextInnerEdges:
    def test_edge_held_by_two_pins_is_its_own_next_inner_value(self):
        # c0 (0.5, 2), c1 (0.5, 6), c2 (2.5, 2): the left edge and the
        # bottom edge each hold two pins
        placement = _grid({"n": (0, 1, 2)}, [0, 4, 2, 3, 1, 5, 6, 7, 8, 9, 10, 11])
        caches = [float(v[0]) for v in net_bboxes(placement)]
        # x_min, x_max, y_min, y_max, then their next-inner values
        assert caches == [0.5, 2.5, 2.0, 6.0, 0.5, 0.5, 2.0, 2.0]
        # c0 leaves both shared edges, c2 leaves the sole right edge, c1
        # the sole top edge; c3 sits off the net at (3.5, 2)
        _check_trials(placement, [(0, 3), (0, 11), (2, 4), (1, 3), (1, 0), (2, 2)])

    def test_net_with_all_pins_in_one_column(self):
        # c3 (1.5, 2), c4 (1.5, 6), c5 (1.5, 10): x edges coincide
        placement = _grid({"n": (3, 4, 5)}, [0, 2, 3, 1, 5, 9, 4, 6, 7, 8, 10, 11])
        caches = [float(v[0]) for v in net_bboxes(placement)]
        assert caches == [1.5, 1.5, 2.0, 10.0, 1.5, 1.5, 6.0, 6.0]
        # each pin leaves the column in turn, the top and bottom pins swap
        # with cells off the net in every row
        _check_trials(placement, [(3, 0), (4, 6), (5, 11), (3, 1), (5, 2), (3, 5)])

    def test_scalar_commit_tracks_the_runner_up(self):
        placement = _grid(
            {"n": (0, 1, 2, 3), "m": (4, 5, 6)}, [0, 4, 2, 8, 1, 5, 9, 3, 6, 7, 10, 11]
        )
        state = WirelengthState(placement)
        for cell_a, cell_b in [(0, 7), (3, 4), (1, 2), (6, 0), (5, 5), (2, 9)]:
            placement.swap_cells(cell_a, cell_b)
            state.commit_swap(cell_a, cell_b)
            assert np.array_equal(state.save_state()[2:], net_bboxes(placement))
            assert np.array_equal(state.per_net, reference_caches(placement)[-1])
