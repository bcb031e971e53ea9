"""Unit tests for the Kelly-style diversification step."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TabuSearchError
from repro.placement import CostEvaluator, Layout, load_benchmark, random_placement
from repro.tabu import CellRange, FrequencyMemory, diversify, full_range, partition_cells


@pytest.fixture()
def evaluator():
    layout = Layout(load_benchmark("mini64"))
    return CostEvaluator(random_placement(layout, seed=17))


class TestDiversify:
    def test_zero_depth_is_noop(self, evaluator, rng):
        before = evaluator.placement.assignment_tuple()
        result = diversify(evaluator, full_range(64), depth=0, rng=rng)
        assert result.depth == 0
        assert evaluator.placement.assignment_tuple() == before

    def test_depth_swaps_performed(self, evaluator, rng):
        result = diversify(evaluator, full_range(64), depth=5, rng=rng)
        assert result.depth == 5
        assert len(result.swaps) == 5
        evaluator.verify_consistency()

    def test_moves_cells_from_the_given_range(self, evaluator, rng):
        cell_range = CellRange(cells=tuple(range(10)))
        result = diversify(evaluator, cell_range, depth=6, rng=rng)
        for first, _ in result.swaps:
            assert first in cell_range

    def test_changes_solution(self, evaluator, rng):
        before = evaluator.placement.assignment_tuple()
        diversify(evaluator, full_range(64), depth=4, rng=rng)
        assert evaluator.placement.assignment_tuple() != before

    def test_invalid_depth_rejected(self, evaluator, rng):
        with pytest.raises(TabuSearchError):
            diversify(evaluator, full_range(64), depth=-1, rng=rng)

    def test_invalid_partner_sample_rejected(self, evaluator, rng):
        with pytest.raises(TabuSearchError):
            diversify(evaluator, full_range(64), depth=1, rng=rng, partner_sample=0)

    def test_frequency_memory_guides_and_is_updated(self, evaluator, rng):
        memory = FrequencyMemory(64)
        # pre-load the memory so cells 0..4 look heavily used
        memory.record_swaps([(cell, cell) for cell in range(5)] * 10)
        cell_range = CellRange(cells=tuple(range(10)))
        result = diversify(
            evaluator, cell_range, depth=4, rng=rng, frequency=memory, partner_sample=4
        )
        # the selected first cells should avoid the heavily used 0..4
        firsts = [first for first, _ in result.swaps]
        assert all(first >= 5 for first in firsts)
        assert memory.counts.sum() > 100  # updated by the performed swaps

    def test_different_ranges_give_different_perturbations(self):
        layout = Layout(load_benchmark("mini64"))
        base = random_placement(layout, seed=3)
        ranges = partition_cells(64, 4)
        outcomes = []
        for index, cell_range in enumerate(ranges):
            evaluator = CostEvaluator(base.copy())
            diversify(
                evaluator, cell_range, depth=4, rng=np.random.default_rng(99)
            )
            outcomes.append(evaluator.placement.assignment_tuple())
        # all four diversified solutions differ pairwise — the TSWs start in
        # different regions of the search space
        assert len(set(outcomes)) == len(outcomes)
