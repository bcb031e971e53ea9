"""Parity tests for the wirelength shared-net detection modes.

The batched swap-delta kernel answers "does the swap partner also sit on
this net?" either with a dense boolean incidence matrix (small instances)
or with a binary search of the sorted CSR keys (large instances, where the
dense matrix would blow the 64 MB budget).  Both must produce bit-identical
deltas, and the commit paths (scalar pin scan vs vectorised net recompute)
must land in the same cache state.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.core.registry import get_domain
from repro.placement import CostEvaluator, Layout, SwapBatch, load_benchmark, random_placement
from repro.placement import wirelength
from repro.placement.wirelength import WirelengthState, full_hpwl


@pytest.fixture(scope="module")
def big2k_placement():
    layout = Layout(load_benchmark("big2k"))
    return random_placement(layout, seed=7)


@pytest.fixture(scope="module")
def big10k_placement():
    layout = Layout(load_benchmark("big10k"))
    return random_placement(layout, seed=7)


def state_on(placement, mode: str) -> WirelengthState:
    """A state on the dense path (both circuits' default below the budget)
    or, with ``INCIDENCE_BUDGET`` patched to 0, on the CSR path."""
    with pytest.MonkeyPatch.context() as patch:
        if mode == "csr":
            patch.setattr(WirelengthState, "INCIDENCE_BUDGET", 0)
        state = WirelengthState(placement)
    assert state.incidence_mode == mode
    return state


def _random_pairs(rng, num_cells, count):
    a = rng.integers(0, num_cells, count).astype(np.int64)
    b = rng.integers(0, num_cells, count).astype(np.int64)
    return a, b


class TestModeSelection:
    def test_small_circuit_defaults_to_dense(self):
        layout = Layout(load_benchmark("c532"))
        state = WirelengthState(random_placement(layout, seed=1))
        assert state.incidence_mode == "dense"

    def test_big10k_defaults_to_csr(self, big10k_placement):
        netlist = big10k_placement.netlist
        assert netlist.num_cells * netlist.num_nets > WirelengthState.INCIDENCE_BUDGET
        state = WirelengthState(big10k_placement)
        assert state.incidence_mode == "csr"

    def test_forced_modes(self, big2k_placement, monkeypatch):
        assert WirelengthState(big2k_placement).incidence_mode == "dense"
        monkeypatch.setattr(WirelengthState, "INCIDENCE_BUDGET", 0)
        assert WirelengthState(big2k_placement).incidence_mode == "csr"


class TestCsrDenseParity:
    def test_batch_deltas_bit_identical(self, big2k_placement):
        dense = state_on(big2k_placement, "dense")
        csr = state_on(big2k_placement, "csr")
        rng = np.random.default_rng(0)
        a, b = _random_pairs(rng, big2k_placement.num_cells, 256)
        batch = SwapBatch(big2k_placement, np.column_stack((a, b)))
        assert np.array_equal(dense.deltas_for_swaps(batch), csr.deltas_for_swaps(batch))

    def test_self_pairs_and_shared_net_pairs(self, big2k_placement):
        dense = state_on(big2k_placement, "dense")
        csr = state_on(big2k_placement, "csr")
        netlist = big2k_placement.netlist
        # pairs sharing a net are exactly the case the incidence test gates
        members = netlist.nets[0].members
        a = np.array([members[0], members[0], 5], dtype=np.int64)
        b = np.array([members[1], members[0], 5], dtype=np.int64)
        batch = SwapBatch(big2k_placement, np.column_stack((a, b)))
        got_dense = dense.deltas_for_swaps(batch)
        got_csr = csr.deltas_for_swaps(batch)
        assert np.array_equal(got_dense, got_csr)
        assert got_dense[1] == 0.0 and got_dense[2] == 0.0

    def test_csr_deltas_match_full_recompute_at_10k(self, big10k_placement):
        state = WirelengthState(big10k_placement)
        assert state.incidence_mode == "csr"
        rng = np.random.default_rng(3)
        a, b = _random_pairs(rng, big10k_placement.num_cells, 4)
        deltas = state.deltas_for_swaps(SwapBatch(big10k_placement, np.column_stack((a, b))))
        for pair_a, pair_b, delta in zip(a.tolist(), b.tolist(), deltas.tolist()):
            big10k_placement.swap_cells(pair_a, pair_b)
            _, swapped_total = full_hpwl(big10k_placement)
            big10k_placement.swap_cells(pair_a, pair_b)
            assert delta == pytest.approx(swapped_total - state.total, abs=1e-6)


class TestCommitPathParity:
    def test_vectorized_commit_matches_scalar(self, big2k_placement):
        scalar = state_on(big2k_placement, "csr")
        vectorized = state_on(big2k_placement, "csr")
        # instance-level override forces the vectorised recompute route
        vectorized.SCALAR_COMMIT_MAX_PINS = 0
        rng = np.random.default_rng(5)
        for _ in range(20):
            a, b = (int(x) for x in rng.integers(0, big2k_placement.num_cells, 2))
            big2k_placement.swap_cells(a, b)
            scalar.commit_swap(a, b)
            vectorized.commit_swap(a, b)
            big2k_placement.swap_cells(a, b)  # leave the module fixture intact
            scalar.commit_swap(b, a)
            vectorized.commit_swap(b, a)
        assert vectorized.total == pytest.approx(scalar.total, abs=1e-9)
        assert np.allclose(vectorized.per_net, scalar.per_net, atol=1e-9)
        scalar.verify_consistency()
        vectorized.verify_consistency()

    def test_routed_commit_never_builds_scalar_caches(self, big10k_placement):
        state = WirelengthState(big10k_placement)
        state.SCALAR_COMMIT_MAX_PINS = 0  # what a >1M-pin instance would see
        big10k_placement.swap_cells(10, 9990)
        state.commit_swap(10, 9990)
        assert state._commit_lists is None  # scalar caches never built
        state.verify_consistency()
        big10k_placement.swap_cells(10, 9990)
        state.commit_swap(10, 9990)
        state.verify_consistency()


class TestSharedCommitLists:
    """The scalar commit path's static lists are built once per layout."""

    def test_two_evaluators_on_one_problem_share_the_lists(self):
        problem = get_domain("placement").build_problem("c532", reference_seed=7)
        states = []
        for seed in (3, 4):
            evaluator = problem.make_evaluator(problem.random_solution(seed=seed))
            evaluator.commit_swap(5, 9)
            states.append(evaluator._wirelength)
        first, second = (state._commit_lists for state in states)
        assert first is second is wirelength.scalar_commit_lists(problem.layout)
        assert all(isinstance(part, tuple) for part in first)  # read-only
        for state in states:
            state.verify_consistency()

    def test_the_entry_dies_with_its_layout(self):
        layout = Layout(load_benchmark("c532", use_cache=False))
        state = WirelengthState(random_placement(layout, seed=2))
        state._placement.swap_cells(1, 2)
        state.commit_swap(1, 2)
        assert layout in wirelength._COMMIT_LISTS
        alive = weakref.ref(layout)
        entries = len(wirelength._COMMIT_LISTS)
        del layout, state
        gc.collect()
        assert alive() is None
        assert len(wirelength._COMMIT_LISTS) == entries - 1


class TestLargeApplyUndoRoundtrip:
    def test_apply_undo_roundtrip_at_10k(self, big10k_placement):
        evaluator = CostEvaluator(big10k_placement)
        before_solution = evaluator.snapshot()
        before_cost = evaluator.cost()
        rng = np.random.default_rng(11)
        pairs = np.column_stack(
            [rng.integers(0, 10_000, 6), rng.integers(0, 10_000, 6)]
        ).astype(np.int64)
        # the reversed sequence undoes the first, through the same bulk path
        evaluator.apply_swaps(pairs)
        evaluator.apply_swaps(pairs[::-1])
        assert np.array_equal(evaluator.snapshot(), before_solution)
        assert evaluator.cost() == pytest.approx(before_cost, rel=1e-9)
