"""Unit tests for the HPWL kernel's shared-net test in :mod:`repro.accel`
and the oracle kernel's segment-reduce fallback, against brute-force
references."""

from __future__ import annotations

import numpy as np
import pytest

from oracles.kernels import fallback_bbox_reduce
from repro.accel import shared_net_mask


class TestSharedNetMask:
    def _brute(self, sorted_keys, query_keys):
        table = set(sorted_keys.tolist())
        return np.array([k in table for k in query_keys.tolist()], dtype=bool)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        sorted_keys = np.unique(rng.integers(0, 10_000, size=400).astype(np.int64))
        queries = rng.integers(0, 10_000, size=1000).astype(np.int64)
        # include guaranteed hits and the extremes
        queries = np.concatenate([queries, sorted_keys[:50], sorted_keys[-1:]])
        want = self._brute(sorted_keys, queries)
        assert np.array_equal(shared_net_mask(sorted_keys, queries), want)

    def test_query_beyond_last_key(self):
        sorted_keys = np.array([2, 5, 9], dtype=np.int64)
        queries = np.array([9, 10, 10**12], dtype=np.int64)
        got = shared_net_mask(sorted_keys, queries)
        assert got.tolist() == [True, False, False]

    def test_empty_inputs(self):
        empty = np.zeros(0, dtype=np.int64)
        keys = np.array([1, 2], dtype=np.int64)
        assert shared_net_mask(empty, keys).tolist() == [False, False]
        assert shared_net_mask(keys, empty).size == 0
        assert shared_net_mask(empty, empty).size == 0


def _bbox_case(seed: int, num_segments: int, num_cells: int = 40):
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 6, size=num_segments).astype(np.int64)
    members = rng.integers(0, num_cells, size=int(counts.sum())).astype(np.int64)
    # the moved pin of each segment is one of its members
    starts = np.zeros(num_segments, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    moved = members[starts]
    to_x = rng.uniform(0, 10, size=num_segments)
    to_y = rng.uniform(0, 10, size=num_segments)
    cts = rng.permutation(num_cells).astype(np.int64)
    slot_x = rng.uniform(0, 10, size=num_cells)
    slot_y = rng.uniform(0, 10, size=num_cells)
    return members, counts, moved, to_x, to_y, cts, slot_x, slot_y


class TestFallbackBboxReduce:
    def _brute(self, members, counts, moved, to_x, to_y, cts, slot_x, slot_y):
        x_min, x_max, y_min, y_max = [], [], [], []
        cursor = 0
        for s in range(counts.size):
            xs, ys = [], []
            for _ in range(counts[s]):
                m = members[cursor]
                cursor += 1
                if m == moved[s]:
                    xs.append(to_x[s])
                    ys.append(to_y[s])
                else:
                    xs.append(slot_x[cts[m]])
                    ys.append(slot_y[cts[m]])
            x_min.append(min(xs))
            x_max.append(max(xs))
            y_min.append(min(ys))
            y_max.append(max(ys))
        return tuple(np.array(v) for v in (x_min, x_max, y_min, y_max))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force(self, seed):
        case = _bbox_case(seed, num_segments=25)
        want = self._brute(*case)
        for got_arr, want_arr in zip(fallback_bbox_reduce(*case), want):
            assert np.array_equal(got_arr, want_arr)
