"""Bit-identity of the :mod:`repro.accel` kernels and the fused select.

The shipped kernels reproduce the frozen direct kernels in
``tests/oracles/kernels.py`` bit-for-bit — including the paths that differ
most between them (trials the wirelength oracle prices through its
vacated-edge segment-reduce fallback, CSR shared-net detection, asymmetric
QAP column sums, self-pairs).
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles.kernels import qap_reference, wirelength_reference
from repro.accel import fuse_admissible, masked_argmin
from repro.placement import Layout, SwapBatch, load_benchmark, random_placement
from repro.placement.wirelength import WirelengthState
from repro.problems.qap.evaluator import QAPEvaluator
from repro.problems.qap.instance import QAPInstance


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
        """The contract battery's asymmetric instance has integer matrices;
        real-valued ones pin the column-sum branch where the order of the
        floating-point operations shows in the bits."""
        instance = _asymmetric_instance()
        assert not instance.is_symmetric
        rng = np.random.default_rng(8)
        assignment = rng.permutation(instance.n).astype(np.int64)
        evaluator = QAPEvaluator(instance, assignment)
        pairs = rng.integers(0, instance.n, size=(200, 2))
        pairs[::11, 1] = pairs[::11, 0]
        shipped = evaluator.deltas_for_swaps(pairs[:, 0], pairs[:, 1])
        oracle = qap_reference(evaluator, pairs[:, 0], pairs[:, 1])
        assert np.array_equal(shipped, oracle)

    def test_all_pairs_of_a_small_instance(self):
        instance = _asymmetric_instance(n=8, seed=9)
        rng = np.random.default_rng(10)
        assignment = rng.permutation(instance.n).astype(np.int64)
        evaluator = QAPEvaluator(instance, assignment)
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
        with pytest.MonkeyPatch.context() as patch:
            if incidence == "csr":
                patch.setattr(WirelengthState, "INCIDENCE_BUDGET", 0)
            state = WirelengthState(placement)
        n = placement.num_cells
        a, b = np.meshgrid(np.arange(n), np.arange(n))
        return state, a.ravel().astype(np.int64), b.ravel().astype(np.int64)

    @pytest.mark.parametrize("incidence", ["dense", "csr"])
    def test_all_pairs_bit_identical_including_fallbacks(self, incidence):
        """All n² pairs of a 64-cell circuit inevitably include trials the
        oracle prices through its vacated-edge fallback, and self-pairs, on
        both shared-net detection paths."""
        state, a, b = self._state_and_pairs(incidence)
        assert state.incidence_mode == incidence
        shipped = state.deltas_for_swaps(SwapBatch(state._placement, np.column_stack((a, b))))
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
        shipped = state.deltas_for_swaps(SwapBatch(placement, np.column_stack((a, b))))
        oracle = wirelength_reference(state, a, b)
        assert np.array_equal(shipped, oracle)
