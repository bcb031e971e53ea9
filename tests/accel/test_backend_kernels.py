"""ArrayBackend semantics and bit-identity of the xp-generic kernels.

The dispatch layer's contract on the CPU path is *exactness*: ``to_device``/
``to_host`` are identities (zero copies, zero counted bytes), the pooled
scratch buffers are plain reuses, and the xp-generic kernels reproduce the
frozen direct kernels bit-for-bit — including the rare paths (vacated-edge
segment-reduce fallback, CSR shared-net detection, asymmetric QAP column
sums, self-pairs).  The cupy-marked twins run the same assertions on a real
device and skip cleanly everywhere else.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles.kernels import qap_reference, wirelength_reference
from repro.accel import (
    ArrayBackend,
    cuda_available,
    fuse_admissible,
    masked_argmin,
)
from repro.metrics import TransferStats
from repro.placement import Layout, Placement, load_benchmark, random_placement
from repro.placement.wirelength import WirelengthState
from repro.problems.qap.evaluator import QAPEvaluator
from repro.problems.qap.instance import QAPInstance


# ---------------------------------------------------------------------- #
# backend mechanics
# ---------------------------------------------------------------------- #
class TestCpuBackendIsTheIdentity:
    def test_to_device_and_to_host_return_the_argument(self):
        backend = ArrayBackend("cpu")
        array = np.arange(5, dtype=np.float64)
        assert backend.to_device(array) is array
        assert backend.to_host(array) is array

    def test_no_transfers_are_counted(self):
        backend = ArrayBackend("cpu")
        backend.to_device(np.zeros(1000))
        backend.to_host(np.zeros(1000))
        stats = backend.transfer_stats()
        assert stats == TransferStats()
        assert stats.total_bytes == 0

    def test_reset_clears_the_counters(self):
        backend = ArrayBackend("cpu")
        backend.reset_transfer_stats()
        assert backend.transfer_stats() == TransferStats()


class TestScratchPool:
    def test_same_key_returns_the_same_buffer(self):
        backend = ArrayBackend("cpu")
        first = backend.scratch(("k", 4), (4, 8))
        assert backend.scratch(("k", 4), (4, 8)) is first
        assert backend.pool_size() == 1

    def test_shape_change_under_a_key_reallocates(self):
        backend = ArrayBackend("cpu")
        first = backend.scratch(("k",), (4, 8))
        second = backend.scratch(("k",), (2, 8))
        assert second is not first
        assert second.shape == (2, 8)

    def test_pool_is_bounded(self):
        backend = ArrayBackend("cpu")
        for i in range(backend.MAX_POOL_KEYS + 3):
            backend.scratch(("k", i), (2, 2))
        assert backend.pool_size() <= backend.MAX_POOL_KEYS

    def test_drop_scratch_empties_the_pool(self):
        backend = ArrayBackend("cpu")
        backend.scratch(("k",), (2, 2))
        backend.drop_scratch()
        assert backend.pool_size() == 0


class TestTransferStats:
    def test_merged_is_fieldwise_sum(self):
        first = TransferStats(
            bytes_to_device=10, bytes_to_host=20,
            transfers_to_device=1, transfers_to_host=2, seconds=0.5,
        )
        second = TransferStats(
            bytes_to_device=5, bytes_to_host=7,
            transfers_to_device=3, transfers_to_host=4, seconds=0.25,
        )
        merged = first.merged(second)
        assert merged.bytes_to_device == 15
        assert merged.bytes_to_host == 27
        assert merged.transfers_to_device == 4
        assert merged.transfers_to_host == 6
        assert merged.seconds == pytest.approx(0.75)
        assert merged.total_bytes == 42

    def test_as_dict_round_trips_the_fields(self):
        stats = TransferStats(bytes_to_device=1, transfers_to_device=1, seconds=0.1)
        d = stats.as_dict()
        assert d["bytes_to_device"] == 1
        assert d["transfers_to_device"] == 1
        assert d["seconds"] == pytest.approx(0.1)


# ---------------------------------------------------------------------- #
# the fused select
# ---------------------------------------------------------------------- #
class TestMaskedArgmin:
    def test_no_mask_is_plain_argmin(self):
        costs = np.array([3.0, 1.0, 2.0])
        assert masked_argmin(costs) == 1

    def test_mask_restricts_the_choice(self):
        costs = np.array([3.0, 1.0, 2.0])
        mask = np.array([True, False, True])
        assert masked_argmin(costs, mask) == 2

    def test_all_masked_out_falls_back_to_overall_best(self):
        costs = np.array([3.0, 1.0, 2.0])
        assert masked_argmin(costs, np.zeros(3, dtype=bool)) == 1

    def test_ties_break_toward_the_first_minimum(self):
        costs = np.array([2.0, 1.0, 1.0, 1.0])
        assert masked_argmin(costs) == 1
        mask = np.array([True, False, True, True])
        assert masked_argmin(costs, mask) == 2

    def test_fuse_admissible_truth_table(self):
        tabu = np.array([False, False, True, True])
        permits = np.array([False, True, False, True])
        assert fuse_admissible(tabu, permits).tolist() == [True, True, False, True]


# ---------------------------------------------------------------------- #
# kernel parity beyond the contract battery's instances
# ---------------------------------------------------------------------- #
def _asymmetric_instance(n: int = 16, seed: int = 7) -> QAPInstance:
    rng = np.random.default_rng(seed)
    flow = rng.uniform(0.0, 9.0, size=(n, n))
    distance = rng.uniform(0.0, 5.0, size=(n, n))
    return QAPInstance(name=f"asym{n}", flow=flow, distance=distance)


class TestQapKernelParity:
    def test_asymmetric_column_sum_branch_is_bit_identical(self):
        """rand/QAPLIB instances are symmetric, so the contract battery never
        reaches the column-sum branch — pin it here."""
        instance = _asymmetric_instance()
        assert not instance.is_symmetric
        rng = np.random.default_rng(8)
        assignment = rng.permutation(instance.n).astype(np.int64)
        evaluator = QAPEvaluator(instance, assignment, device="cpu")
        pairs = rng.integers(0, instance.n, size=(200, 2))
        pairs[::11, 1] = pairs[::11, 0]
        shipped = evaluator.deltas_for_swaps(pairs[:, 0], pairs[:, 1])
        oracle = qap_reference(evaluator, pairs[:, 0], pairs[:, 1])
        assert np.array_equal(shipped, oracle)

    def test_all_pairs_of_a_small_instance(self):
        instance = _asymmetric_instance(n=8, seed=9)
        rng = np.random.default_rng(10)
        assignment = rng.permutation(instance.n).astype(np.int64)
        evaluator = QAPEvaluator(instance, assignment, device="cpu")
        a, b = np.meshgrid(np.arange(8), np.arange(8))
        shipped = evaluator.deltas_for_swaps(a.ravel(), b.ravel())
        oracle = qap_reference(evaluator, a.ravel(), b.ravel())
        assert np.array_equal(shipped, oracle)
        # self-pairs are exactly zero, not merely tiny
        assert np.all(shipped[a.ravel() == b.ravel()] == 0.0)


class TestWirelengthKernelParity:
    def _state_and_pairs(self, incidence: str):
        layout = Layout(load_benchmark("mini64"))
        placement = random_placement(layout, seed=3)
        state = WirelengthState(placement, incidence=incidence, device="cpu")
        n = placement.num_cells
        a, b = np.meshgrid(np.arange(n), np.arange(n))
        return state, a.ravel().astype(np.int64), b.ravel().astype(np.int64)

    @pytest.mark.parametrize("incidence", ["dense", "csr"])
    def test_all_pairs_bit_identical_including_fallbacks(self, incidence):
        """All n² pairs of a 64-cell circuit inevitably include vacated-edge
        fallback trials and self-pairs, on both shared-net detection paths."""
        state, a, b = self._state_and_pairs(incidence)
        assert state.incidence_mode == incidence
        shipped = state.deltas_for_swaps(a, b)
        oracle = wirelength_reference(state, a, b)
        assert np.array_equal(shipped, oracle)
        assert np.all(shipped[a == b] == 0.0)

    def test_parity_survives_committed_swaps(self):
        state, a, b = self._state_and_pairs("dense")
        placement = state._placement
        rng = np.random.default_rng(12)
        for _ in range(10):
            i, j = (int(x) for x in rng.integers(0, placement.num_cells, 2))
            placement.swap_cells(i, j)
            state.commit_swap(i, j)
        shipped = state.deltas_for_swaps(a, b)
        oracle = wirelength_reference(state, a, b)
        assert np.array_equal(shipped, oracle)

    def test_cpu_state_reports_zero_traffic(self):
        state, a, b = self._state_and_pairs("dense")
        state.deltas_for_swaps(a[:500], b[:500])
        assert state.transfer_stats().total_bytes == 0
        assert state.device == "cpu"


# ---------------------------------------------------------------------- #
# cupy twins (skip cleanly without a device)
# ---------------------------------------------------------------------- #
cupy_only = pytest.mark.skipif(
    not cuda_available(), reason="cupy/CUDA device not available"
)


@cupy_only
class TestCudaBackend:  # pragma: no cover - requires a GPU
    def test_round_trip_preserves_values_and_counts_bytes(self):
        backend = ArrayBackend("cuda")
        array = np.arange(1024, dtype=np.float64)
        device = backend.to_device(array)
        back = backend.to_host(device)
        assert np.array_equal(back, array)
        stats = backend.transfer_stats()
        assert stats.bytes_to_device == array.nbytes
        assert stats.bytes_to_host == array.nbytes
        assert stats.transfers_to_device == 1
        assert stats.transfers_to_host == 1

    def test_qap_cuda_matches_reference(self):
        instance = _asymmetric_instance()
        rng = np.random.default_rng(8)
        assignment = rng.permutation(instance.n).astype(np.int64)
        shipped = QAPEvaluator(instance, assignment, device="cuda")
        oracle = QAPEvaluator(instance, assignment, device="cpu")
        pairs = rng.integers(0, instance.n, size=(100, 2))
        np.testing.assert_allclose(
            shipped.deltas_for_swaps(pairs[:, 0], pairs[:, 1]),
            qap_reference(oracle, pairs[:, 0], pairs[:, 1]),
            atol=1e-9,
            rtol=0.0,
        )

    def test_wirelength_cuda_matches_reference(self):
        layout = Layout(load_benchmark("mini64"))
        placement = random_placement(layout, seed=3)
        shipped = WirelengthState(placement, device="cuda")
        oracle = WirelengthState(placement, device="cpu")
        n = placement.num_cells
        a, b = np.meshgrid(np.arange(n), np.arange(n))
        np.testing.assert_allclose(
            shipped.deltas_for_swaps(a.ravel(), b.ravel()),
            wirelength_reference(oracle, a.ravel(), b.ravel()),
            atol=2e-2,
            rtol=0.0,
        )
        assert shipped.transfer_stats().total_bytes > 0
