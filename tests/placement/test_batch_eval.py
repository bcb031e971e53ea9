"""Property tests for the batched swap-evaluation kernel.

The contract under test: for any batch of candidate pairs, the batched path
(:meth:`CostEvaluator.evaluate_swaps_batch` and the per-objective
``deltas_for_swaps`` kernels over a :class:`SwapBatch`), the same kernels
called with one pair
(``evaluate_swap`` is that call) and a from-scratch recomputation
(``full_hpwl`` / ``full_area`` on a mutated copy) must all agree — including
after arbitrary committed swap sequences, on bbox-edge cells, and on
degenerate nets (minimum-degree two-pin nets and nets whose pins share
coordinates, which exercise the edge-multiplicity bookkeeping).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.placement import (
    CellKind,
    CostEvaluator,
    Layout,
    NetlistBuilder,
    SwapBatch,
    load_benchmark,
    random_placement,
)
from repro.placement.area import AreaState, full_area
from repro.placement.wirelength import WirelengthState, full_hpwl

ATOL = 1e-6


def build_degenerate_netlist():
    """A circuit stressing bbox-edge corner cases.

    Mostly two-pin nets (every pin is on a bbox edge), one high-fanout net
    (many pins share bbox edges once placed in few rows), and a star where
    several sinks will often share a row/column coordinate — the cases where
    an edge held by several pins makes the next-inner value equal the edge.
    """
    builder = NetlistBuilder("degenerate")
    builder.add_cell("pi0", kind=CellKind.PRIMARY_INPUT, delay=0.0)
    for index in range(14):
        builder.add_cell(f"g{index}", width=1.0 + 0.25 * (index % 3))
    builder.add_cell("po0", kind=CellKind.PRIMARY_OUTPUT, delay=0.0)
    # chain of two-pin nets: minimum-degree nets, both pins always on the bbox
    builder.add_net("n_in", driver="pi0", sinks=["g0"])
    for index in range(13):
        builder.add_net(f"n{index}", driver=f"g{index}", sinks=[f"g{index + 1}"])
    # one high-fanout net and a star (shared-coordinate pins after placement)
    builder.add_net("n_fan", driver="g0", sinks=[f"g{i}" for i in range(2, 14, 2)], weight=2.0)
    builder.add_net("n_star", driver="g1", sinks=["g5", "g9", "g13", "po0"])
    return builder.build()


def circuits():
    return [
        Layout(load_benchmark("tiny16")),
        Layout(load_benchmark("mini64")),
        Layout(build_degenerate_netlist()),
    ]


@pytest.mark.parametrize("layout_index", [0, 1, 2])
def test_wirelength_batch_scalar_full_agree(layout_index):
    layout = circuits()[layout_index]
    placement = random_placement(layout, seed=layout_index)
    state = WirelengthState(placement)
    rng = np.random.default_rng(layout_index + 10)
    n = placement.num_cells
    pairs = rng.integers(0, n, size=(300, 2))
    batch = state.deltas_for_swaps(SwapBatch(placement, pairs))
    for k, (a, b) in enumerate(pairs):
        a, b = int(a), int(b)
        scalar = state.deltas_for_swaps(SwapBatch(placement, [(a, b)]))[0]
        placement.swap_cells(a, b)
        _, swapped_total = full_hpwl(placement)
        placement.swap_cells(a, b)
        exact = swapped_total - state.total
        assert batch[k] == pytest.approx(exact, abs=ATOL)
        assert scalar == pytest.approx(exact, abs=ATOL)
        assert scalar == batch[k]  # a pair's delta does not depend on its batch


@pytest.mark.parametrize("layout_index", [0, 1, 2])
def test_area_batch_scalar_full_agree(layout_index):
    layout = circuits()[layout_index]
    placement = random_placement(layout, seed=layout_index + 1)
    state = AreaState(placement)
    rng = np.random.default_rng(layout_index + 20)
    n = placement.num_cells
    pairs = rng.integers(0, n, size=(300, 2))
    batch = state.deltas_for_swaps(SwapBatch(placement, pairs))
    for k, (a, b) in enumerate(pairs):
        a, b = int(a), int(b)
        scalar = state.deltas_for_swaps(SwapBatch(placement, [(a, b)]))[0]
        placement.swap_cells(a, b)
        exact = full_area(placement) - state.total
        placement.swap_cells(a, b)
        assert batch[k] == pytest.approx(exact, abs=ATOL)
        assert scalar == pytest.approx(exact, abs=ATOL)


@pytest.mark.parametrize("layout_index", [0, 1, 2])
def test_cost_batch_equals_scalar(layout_index):
    layout = circuits()[layout_index]
    evaluator = CostEvaluator(random_placement(layout, seed=layout_index + 2))
    rng = np.random.default_rng(layout_index + 30)
    n = evaluator.placement.num_cells
    pairs = rng.integers(0, n, size=(200, 2))
    # include self-swaps, which must score the current cost
    pairs[::50, 1] = pairs[::50, 0]
    batch = evaluator.evaluate_swaps_batch(pairs)
    for k, (a, b) in enumerate(pairs):
        assert batch[k] == evaluator.evaluate_swap(int(a), int(b))
    self_mask = pairs[:, 0] == pairs[:, 1]
    assert np.all(batch[self_mask] == evaluator.cost())


@pytest.mark.parametrize("layout_index", [0, 1, 2])
def test_batch_agrees_after_committed_walk(layout_index):
    """Interleave commits and batch evaluations: caches must never drift."""
    layout = circuits()[layout_index]
    evaluator = CostEvaluator(random_placement(layout, seed=layout_index + 3))
    rng = np.random.default_rng(layout_index + 40)
    n = evaluator.placement.num_cells
    for _ in range(12):
        for _ in range(8):
            a, b = (int(x) for x in rng.integers(0, n, 2))
            evaluator.commit_swap(a, b)
        evaluator.verify_consistency()
        pairs = rng.integers(0, n, size=(64, 2))
        batch = evaluator.evaluate_swaps_batch(pairs)
        spot = rng.integers(0, len(pairs), size=8)
        for k in spot:
            a, b = (int(x) for x in pairs[k])
            assert batch[k] == evaluator.evaluate_swap(a, b)
            # from-scratch wirelength cross-check on a mutated copy
            evaluator.placement.swap_cells(a, b)
            _, exact_wl = full_hpwl(evaluator.placement)
            exact_area = full_area(evaluator.placement)
            evaluator.placement.swap_cells(a, b)
            trial = SwapBatch(evaluator.placement, [(a, b)])
            wl_delta = evaluator._wirelength.deltas_for_swaps(trial)[0]
            area_delta = evaluator._area.deltas_for_swaps(trial)[0]
            assert evaluator._wirelength.total + wl_delta == pytest.approx(exact_wl, abs=ATOL)
            assert evaluator._area.total + area_delta == pytest.approx(exact_area, abs=ATOL)


def test_save_restore_roundtrip():
    layout = Layout(load_benchmark("mini64"))
    evaluator = CostEvaluator(random_placement(layout, seed=9))
    rng = np.random.default_rng(50)
    n = evaluator.placement.num_cells
    state = evaluator.save_state()
    cost_before = evaluator.cost()
    assignment_before = evaluator.placement.assignment_tuple()
    for _ in range(25):
        a, b = (int(x) for x in rng.integers(0, n, 2))
        evaluator.commit_swap(a, b)
    assert evaluator.placement.assignment_tuple() != assignment_before
    evaluator.restore_state(state)
    assert evaluator.placement.assignment_tuple() == assignment_before
    assert evaluator.cost() == cost_before
    evaluator.verify_consistency()
    # the restored caches must keep producing exact deltas
    pairs = rng.integers(0, n, size=(64, 2))
    batch = evaluator.evaluate_swaps_batch(pairs)
    for k in range(0, 64, 16):
        a, b = (int(x) for x in pairs[k])
        assert batch[k] == evaluator.evaluate_swap(a, b)


def test_batch_empty_and_shapes():
    layout = Layout(load_benchmark("tiny16"))
    evaluator = CostEvaluator(random_placement(layout, seed=0))
    assert evaluator.evaluate_swaps_batch([]).shape == (0,)
    assert evaluator.evaluate_swaps_batch([(0, 1)]).shape == (1,)
    assert evaluator.evaluate_swaps_batch(np.array([[0, 1], [2, 3]])).shape == (2,)
