"""Unit tests for the tabu memory structures (short and long term)."""

from __future__ import annotations

import numpy as np
import pytest

from oracles.tabu import TabuList, swap_attributes
from repro.errors import TabuSearchError
import repro.tabu.tabu_list as tabu_list_module
from repro.tabu import (
    ArrayTabuList,
    FrequencyMemory,
    MoveAttribute,
    pair_attribute_indices,
)
from repro.tabu.tabu_list import ARRAY_TABU_MAX_CELLS


class TestMoveAttribute:
    def test_pair_is_order_independent(self):
        assert MoveAttribute.pair(3, 7) == MoveAttribute.pair(7, 3)


class TestTabuList:
    def test_negative_tenure_rejected(self):
        with pytest.raises(TabuSearchError):
            TabuList(-1)

    def test_zero_tenure_never_tabu(self):
        tabu = TabuList(0)
        attrs = swap_attributes(1, 2)
        tabu.record(attrs, iteration=1)
        assert not tabu.is_tabu(attrs, iteration=1)
        assert len(tabu) == 0

    def test_recorded_attribute_is_tabu_within_tenure(self):
        tabu = TabuList(3)
        attrs = swap_attributes(1, 2)
        tabu.record(attrs, iteration=10)
        assert tabu.is_tabu(attrs, iteration=10)
        assert tabu.is_tabu(attrs, iteration=12)
        assert not tabu.is_tabu(attrs, iteration=13)

    def test_unrelated_attribute_not_tabu(self):
        tabu = TabuList(3)
        tabu.record(swap_attributes(1, 2), iteration=0)
        assert not tabu.is_tabu(swap_attributes(3, 4), iteration=1)

    def test_reverse_swap_is_tabu_with_pair_scheme(self):
        tabu = TabuList(5)
        tabu.record(swap_attributes(1, 2), iteration=0)
        assert tabu.is_tabu(swap_attributes(2, 1), iteration=1)

    def test_expire_removes_stale_entries(self):
        tabu = TabuList(2)
        tabu.record(swap_attributes(1, 2), iteration=0)
        tabu.record(swap_attributes(3, 4), iteration=5)
        removed = tabu.expire(iteration=4)
        assert removed == 1
        assert len(tabu) == 1

    def test_re_recording_extends_tenure(self):
        tabu = TabuList(2)
        attrs = swap_attributes(1, 2)
        tabu.record(attrs, iteration=0)
        tabu.record(attrs, iteration=5)
        assert tabu.is_tabu(attrs, iteration=6)

    def test_payload_round_trip(self):
        tabu = TabuList(4)
        tabu.record(swap_attributes(1, 2), iteration=3)
        tabu.record(swap_attributes(5, 6), iteration=4)
        payload = tabu.to_payload()
        rebuilt = TabuList.from_payload(payload, tenure=4)
        assert len(rebuilt) == len(tabu)
        assert rebuilt.is_tabu(swap_attributes(2, 1), iteration=5)
        assert rebuilt.is_tabu(swap_attributes(6, 5), iteration=5)
        assert not rebuilt.is_tabu(swap_attributes(5, 9), iteration=5)

    def test_membership_and_iteration(self):
        tabu = TabuList(4)
        attr = MoveAttribute.pair(1, 2)
        tabu.record([attr], iteration=0)
        assert attr in tabu
        assert list(tabu) == [attr]


class TestPairAttributeIndices:
    def test_orientation_independent(self):
        pairs = np.array([[3, 7], [7, 3], [0, 9]])
        idx = pair_attribute_indices(pairs, 10)
        assert idx[0] == idx[1] == 3 * 10 + 7
        assert idx[2] == 9

    def test_empty(self):
        assert pair_attribute_indices(np.zeros((0, 2), dtype=np.int64), 10).size == 0


@pytest.fixture(params=["dense", "hashed"])
def layout(request, monkeypatch):
    """Both pair layouts on small instances: ``"hashed"`` lowers the dense
    cap below every test's cell count, so lists built under it (directly or
    through ``from_payload``) take the hashed table."""
    if request.param == "hashed":
        monkeypatch.setattr(tabu_list_module, "ARRAY_TABU_MAX_CELLS", 1)
    return request.param


def _in_layout(tabu, layout):
    assert tabu._dense_pairs == (layout == "dense")
    return tabu


class TestArrayTabuList:
    def test_negative_tenure_rejected(self):
        with pytest.raises(TabuSearchError):
            ArrayTabuList(-1, 10)

    def test_zero_tenure_never_tabu(self, layout):
        tabu = _in_layout(ArrayTabuList(0, 10), layout)
        pairs = np.array([[1, 2]])
        tabu.record_pairs(pairs, 1)
        assert not tabu.is_tabu_mask(pairs, 1).any()
        assert len(tabu) == 0

    def test_pair_is_tabu_for_exactly_tenure_iterations(self, layout):
        tabu = _in_layout(ArrayTabuList(3, 10), layout)
        pair = np.array([[4, 7]])
        tabu.record_pairs(pair, 10)
        assert [tabu.is_tabu_pairs(pair, it) for it in (10, 11, 12, 13)] == [
            True,
            True,
            True,
            False,
        ]

    def test_re_recording_extends_tenure(self, layout):
        tabu = _in_layout(ArrayTabuList(2, 10), layout)
        pair = np.array([[1, 2]])
        tabu.record_pairs(pair, 0)
        tabu.record_pairs(pair, 5)
        assert tabu.is_tabu_pairs(pair, 6)
        assert tabu.to_payload() == (("pair", (1, 2), 7),)
        assert not tabu.is_tabu_pairs(pair, 7)

    def test_any_tabu_pair_makes_the_move_tabu(self, layout):
        tabu = _in_layout(ArrayTabuList(5, 10), layout)
        tabu.record_pairs(np.array([[3, 8]]), 0)
        move = np.array([[0, 1], [8, 3], [5, 6]])
        assert tabu.is_tabu_mask(move, 1).tolist() == [False, True, False]
        assert tabu.is_tabu_pairs(move, 1)
        assert not tabu.is_tabu_pairs(move[[0, 2]], 1)

    def test_empty_batches(self, layout):
        tabu = _in_layout(ArrayTabuList(5, 10), layout)
        empty = np.zeros((0, 2), dtype=np.int64)
        assert tabu.is_tabu_mask(empty, 0).shape == (0,)
        tabu.record_pairs(empty, 1)
        assert len(tabu) == 0
        tabu.record_pairs(np.array([[1, 2]]), 1)
        assert tabu.is_tabu_mask(empty, 2).shape == (0,)
        assert not tabu.is_tabu_pairs(empty, 2)

    def test_mask_matches_dict_oracle_under_random_walk(self, layout):
        """Random record/query interleavings: array == dict, bit for bit."""
        rng = np.random.default_rng(3)
        n = 20
        dict_list = TabuList(5)
        array_list = _in_layout(ArrayTabuList(5, n), layout)
        for iteration in range(1, 60):
            queries = rng.integers(0, n, size=(8, 2))
            queries = queries[queries[:, 0] != queries[:, 1]]
            dict_mask = dict_list.is_tabu_mask(queries, iteration)
            array_mask = array_list.is_tabu_mask(queries, iteration)
            assert np.array_equal(dict_mask, array_mask)
            assert dict_list.is_tabu_pairs(queries, iteration) == (
                array_list.is_tabu_pairs(queries, iteration)
            )
            if queries.shape[0]:
                recorded = queries[: int(rng.integers(0, queries.shape[0] + 1))]
                dict_list.record_pairs(recorded, iteration)
                array_list.record_pairs(recorded, iteration)
            dict_list.expire(iteration)
            array_list.expire(iteration)
            assert set(dict_list.to_payload()) == set(array_list.to_payload())
            assert len(dict_list) == len(array_list)

    def test_reverse_pair_is_tabu(self, layout):
        tabu = _in_layout(ArrayTabuList(5, 10), layout)
        tabu.record_pairs(np.array([[1, 2]]), 0)
        assert tabu.is_tabu_mask(np.array([[2, 1]]), 1).any()

    def test_lazy_expiry_drops_entries_from_live_views(self, layout):
        tabu = _in_layout(ArrayTabuList(2, 10), layout)
        tabu.record_pairs(np.array([[1, 2]]), 0)  # expiry 2
        tabu.record_pairs(np.array([[3, 4]]), 5)  # expiry 7
        assert len(tabu) == 1  # first entry lapsed by iteration 5
        tabu.expire(7)  # lazy: nothing swept, live view shrinks
        assert len(tabu) == 0
        assert tabu.to_payload() == ()

    def test_payload_round_trips_across_implementations(self, layout):
        dict_list = TabuList(4)
        dict_list.record(swap_attributes(1, 2), iteration=3)
        dict_list.record(swap_attributes(6, 5), iteration=4)
        array_list = _in_layout(
            ArrayTabuList.from_payload(dict_list.to_payload(), 4, 10), layout
        )
        assert set(array_list.to_payload()) == set(dict_list.to_payload())
        back = TabuList.from_payload(array_list.to_payload(), 4)
        assert set(back.to_payload()) == set(dict_list.to_payload())
        assert back.is_tabu(swap_attributes(2, 1), iteration=5)

    @pytest.mark.parametrize(
        "entry", [("swap", (1, 2), 5), ("pair", (3, 10), 5), ("cell", (3,), 5)]
    )
    def test_payload_entry_outside_attribute_space_rejected(self, entry):
        """Payloads also come from checkpoints on disk: a kind other than
        ``"pair"`` or a key outside ``num_cells`` must not be kept where no
        mask looks."""
        with pytest.raises(TabuSearchError):
            ArrayTabuList.from_payload((entry,), 4, 10)

    def test_pair_layout_dense_up_to_cap_hashed_above(self):
        assert ArrayTabuList(5, ARRAY_TABU_MAX_CELLS)._dense_pairs
        # above the dense cap the list switches its pair store to the
        # hashed layout internally
        big = ArrayTabuList(5, ARRAY_TABU_MAX_CELLS + 1)
        assert not big._dense_pairs


class TestDictTabuListBatchSurface:
    def test_record_pairs_matches_attribute_records(self):
        batch = TabuList(5)
        loop = TabuList(5)
        pairs = np.array([[1, 2], [3, 4]])
        batch.record_pairs(pairs, 7)
        for a, b in pairs.tolist():
            loop.record(swap_attributes(a, b), 7)
        assert set(batch.to_payload()) == set(loop.to_payload())

    def test_amortised_expire_still_exact(self):
        tabu = TabuList(2)
        tabu.record(swap_attributes(1, 2), iteration=0)
        tabu.record(swap_attributes(1, 2), iteration=1)  # re-record extends
        tabu.record(swap_attributes(3, 4), iteration=1)
        assert tabu.expire(2) == 0  # nothing lapsed yet (expiries are 3)
        assert tabu.expire(3) == 2
        assert len(tabu) == 0


class TestHashedPairBackend:
    """Above the dense cap the pair store switches to the exact-key hash
    table; these tests pin it to the dense layout and the dict oracle."""

    NUM_CELLS = 6000  # > ARRAY_TABU_MAX_CELLS, so auto-selects hashed

    def _trajectory(self, tabu, rng):
        n = self.NUM_CELLS
        masks, lens = [], []
        for iteration in range(120):
            pairs = np.column_stack(
                [
                    rng.integers(0, n, size=16),
                    rng.integers(0, n, size=16),
                ]
            )
            keep = pairs[:, 0] != pairs[:, 1]
            tabu.record_pairs(pairs[keep][:6], iteration)
            masks.append(tabu.is_tabu_mask(pairs, iteration).copy())
            # no-op for the array backends; brings the dict oracle's
            # amortised expiry current so len() means "live right now"
            tabu.expire(iteration)
            lens.append(len(tabu))
        return masks, lens, set(tabu.to_payload())

    def test_hashed_matches_dense_and_oracle(self, monkeypatch):
        hashed = ArrayTabuList(9, self.NUM_CELLS)
        monkeypatch.setattr(tabu_list_module, "ARRAY_TABU_MAX_CELLS", self.NUM_CELLS)
        dense = ArrayTabuList(9, self.NUM_CELLS)
        oracle = TabuList(9)
        assert not hashed._dense_pairs
        assert dense._dense_pairs
        h = self._trajectory(hashed, np.random.default_rng(42))
        d = self._trajectory(dense, np.random.default_rng(42))
        o = self._trajectory(oracle, np.random.default_rng(42))
        for got, want in ((h, d), (h, o)):
            for mask_got, mask_want in zip(got[0], want[0]):
                assert np.array_equal(mask_got, mask_want)
            assert got[1] == want[1]
            assert got[2] == want[2]

    def test_payload_roundtrip(self):
        hashed = ArrayTabuList(7, self.NUM_CELLS)
        rng = np.random.default_rng(3)
        pairs = np.column_stack(
            [rng.integers(0, self.NUM_CELLS, 8), rng.integers(0, self.NUM_CELLS, 8)]
        )
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        hashed.record_pairs(pairs, 5)
        payload = hashed.to_payload()
        clone = ArrayTabuList.from_payload(payload, 7, self.NUM_CELLS)
        assert not clone._dense_pairs
        assert set(clone.to_payload()) == set(payload)
        assert np.array_equal(
            clone.is_tabu_mask(pairs, 6), hashed.is_tabu_mask(pairs, 6)
        )

    def test_stale_pruning_bounds_capacity(self):
        from repro.tabu.tabu_list import _HashedPairTable

        table = _HashedPairTable()
        # tenure-9-style churn: expiries lapse long before capacity is hit
        for i in range(3000):
            table.store(i * 977 % (10**9), expiry=i + 9, floor=i)
        assert table._keys.size <= 1 << 10


class TestFrequencyMemory:
    def test_invalid_size_rejected(self):
        with pytest.raises(TabuSearchError):
            FrequencyMemory(0)

    def test_record_and_counts(self):
        memory = FrequencyMemory(10)
        memory.record_swap(1, 2)
        memory.record_swap(1, 5)
        assert memory.counts[1] == 2
        assert memory.counts[2] == 1
        assert memory.counts[0] == 0

    def test_least_moved_prefers_untouched_cells(self):
        memory = FrequencyMemory(6)
        rng = np.random.default_rng(0)
        for _ in range(5):
            memory.record_swap(0, 1)
        candidates = np.array([0, 1, 4])
        assert memory.least_moved(candidates, rng) == 4

    def test_least_moved_empty_candidates_rejected(self):
        memory = FrequencyMemory(6)
        with pytest.raises(TabuSearchError):
            memory.least_moved(np.array([], dtype=np.int64), np.random.default_rng(0))

    def test_record_swaps_bulk_matches_scalar(self):
        bulk = FrequencyMemory(10)
        scalar = FrequencyMemory(10)
        pairs = np.array([[1, 2], [1, 5], [2, 5], [0, 9]])
        bulk.record_swaps(pairs)
        for a, b in pairs.tolist():
            scalar.record_swap(a, b)
        assert np.array_equal(bulk.counts, scalar.counts)

    def test_record_swaps_empty_is_noop(self):
        memory = FrequencyMemory(4)
        memory.record_swaps(np.zeros((0, 2), dtype=np.int64))
        assert memory.counts.sum() == 0

    def test_reset(self):
        memory = FrequencyMemory(4)
        memory.record_swap(0, 1)
        memory.reset()
        assert memory.counts.sum() == 0

    def test_counts_read_only(self):
        memory = FrequencyMemory(4)
        with pytest.raises(ValueError):
            memory.counts[0] = 5
