"""Unit and property-based tests for cell ranges and candidate-pair sampling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TabuSearchError
from repro.tabu import (
    CellRange,
    collision_probability,
    full_range,
    partition_cells,
    sample_candidate_pairs_array,
)


class TestCellRange:
    def test_empty_range_rejected(self):
        with pytest.raises(TabuSearchError):
            CellRange(cells=())

    def test_cells_are_sorted_and_deduplicated(self):
        cell_range = CellRange(cells=(5, 1, 3, 1))
        assert cell_range.cells == (1, 3, 5)
        assert len(cell_range) == 3
        assert 3 in cell_range
        assert 2 not in cell_range

    def test_sample_stays_inside_range(self, rng):
        cell_range = CellRange(cells=(2, 4, 6, 8))
        for _ in range(50):
            assert cell_range.sample(rng) in cell_range

    def test_full_range(self):
        cell_range = full_range(10)
        assert len(cell_range) == 10
        assert cell_range.cells == tuple(range(10))

    def test_full_range_invalid(self):
        with pytest.raises(TabuSearchError):
            full_range(0)


class TestPartitionCells:
    def test_contiguous_partition_covers_everything(self):
        parts = partition_cells(100, 4, scheme="contiguous")
        all_cells = sorted(c for part in parts for c in part.cells)
        assert all_cells == list(range(100))
        assert len(parts) == 4

    def test_strided_partition_covers_everything(self):
        parts = partition_cells(101, 4, scheme="strided")
        all_cells = sorted(c for part in parts for c in part.cells)
        assert all_cells == list(range(101))

    def test_partitions_are_disjoint(self):
        parts = partition_cells(50, 7, scheme="strided")
        seen = set()
        for part in parts:
            assert not (seen & set(part.cells))
            seen.update(part.cells)

    def test_partition_sizes_balanced(self):
        parts = partition_cells(100, 3)
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_more_parts_than_cells_rejected(self):
        with pytest.raises(TabuSearchError):
            partition_cells(3, 5)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(TabuSearchError):
            partition_cells(10, 2, scheme="zigzag")

    @settings(max_examples=60, deadline=None)
    @given(
        num_cells=st.integers(1, 300),
        num_parts=st.integers(1, 12),
        scheme=st.sampled_from(["contiguous", "strided"]),
    )
    def test_partition_is_exact_cover(self, num_cells, num_parts, scheme):
        if num_parts > num_cells:
            with pytest.raises(TabuSearchError):
                partition_cells(num_cells, num_parts, scheme=scheme)
            return
        parts = partition_cells(num_cells, num_parts, scheme=scheme)
        assert len(parts) == num_parts
        assert all(len(p) >= 1 for p in parts)
        combined = sorted(c for part in parts for c in part.cells)
        assert combined == list(range(num_cells))


class TestCandidatePairs:
    def test_first_cell_from_range_second_different(self, rng):
        cell_range = CellRange(cells=(0, 1, 2, 3))
        pairs = sample_candidate_pairs_array(cell_range.as_array(), 20, 100, rng)
        assert pairs.shape == (100, 2)
        assert pairs.dtype == np.int64
        for first, second in pairs.tolist():
            assert first in cell_range
            assert 0 <= second < 20
            assert first != second

    def test_invalid_count_rejected(self, rng):
        with pytest.raises(TabuSearchError):
            sample_candidate_pairs_array(full_range(5).as_array(), 5, 0, rng)

    def test_too_few_cells_rejected(self, rng):
        with pytest.raises(TabuSearchError):
            sample_candidate_pairs_array(full_range(1).as_array(), 1, 1, rng)

    def test_second_cell_covers_whole_space(self, rng):
        cell_range = CellRange(cells=(0,))
        pairs = sample_candidate_pairs_array(cell_range.as_array(), 6, 400, rng)
        seconds = set(pairs[:, 1].tolist())
        assert seconds == {1, 2, 3, 4, 5}


class TestCollisionProbability:
    def test_paper_formula(self):
        # the paper: probability that two CLWs make the same move is 1/(n-1)^2
        assert collision_probability(11) == pytest.approx(1.0 / 100.0)

    def test_decreases_with_circuit_size(self):
        assert collision_probability(1000) < collision_probability(100)

    def test_small_n_rejected(self):
        with pytest.raises(TabuSearchError):
            collision_probability(1)
