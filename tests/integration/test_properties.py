"""Property-based tests of cross-module invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.placement import CostEvaluator, Layout, load_benchmark, random_placement
from repro.placement.area import full_area
from repro.placement.wirelength import full_hpwl
from repro.tabu import (
    CompoundMoveBuilder,
    TabuSearch,
    TabuSearchParams,
    TerminationCriteria,
    full_range,
)


def fresh_evaluator(seed: int) -> CostEvaluator:
    layout = Layout(load_benchmark("highway"))
    return CostEvaluator(random_placement(layout, seed=seed))


class TestEvaluatorInvariants:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 100),
        swaps=st.lists(st.tuples(st.integers(0, 55), st.integers(0, 55)), max_size=15),
    )
    def test_caches_never_drift(self, seed, swaps):
        evaluator = fresh_evaluator(seed)
        for a, b in swaps:
            evaluator.commit_swap(a, b)
        evaluator.verify_consistency()
        _, wirelength = full_hpwl(evaluator.placement)
        assert evaluator.objectives().wirelength == pytest.approx(wirelength)
        assert evaluator.objectives().area == pytest.approx(full_area(evaluator.placement))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 100), a=st.integers(0, 55), b=st.integers(0, 55))
    def test_trial_then_commit_agree(self, seed, a, b):
        evaluator = fresh_evaluator(seed)
        predicted = evaluator.evaluate_swap(a, b)
        actual = evaluator.commit_swap(a, b)
        assert actual == pytest.approx(predicted, rel=1e-9, abs=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 100))
    def test_cost_bounded_in_unit_interval(self, seed):
        evaluator = fresh_evaluator(seed)
        assert 0.0 <= evaluator.cost() <= 1.0


class TestCompoundMoveInvariants:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 50),
        pairs=st.integers(1, 6),
        depth=st.integers(1, 4),
        early=st.booleans(),
    )
    def test_compound_move_leaves_consistent_state(self, seed, pairs, depth, early):
        evaluator = fresh_evaluator(seed)
        rng = np.random.default_rng(seed)
        builder = CompoundMoveBuilder(
            evaluator,
            full_range(evaluator.placement.num_cells),
            pairs_per_step=pairs,
            depth=depth,
            early_accept=early,
        )
        while builder.wants_more_steps():
            builder.step(rng)
        move = builder.finalize()
        evaluator.verify_consistency()
        assert 1 <= move.depth <= depth
        assert move.trials <= pairs * depth
        assert move.cost_after == pytest.approx(evaluator.cost())


class TestSearchInvariants:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 30), iterations=st.integers(1, 12))
    def test_best_cost_never_worse_than_initial(self, seed, iterations):
        evaluator = fresh_evaluator(seed)
        initial = evaluator.cost()
        search = TabuSearch(
            evaluator,
            TabuSearchParams(pairs_per_step=3, move_depth=2),
            seed=seed,
        )
        result = search.run(TerminationCriteria(max_iterations=iterations))
        assert result.best_cost <= initial + 1e-12
        assert result.iterations == iterations
        # The stored best solution evaluates close to the stored best cost.
        # A small tolerance is expected: during the search the timing term is
        # a path-based surrogate that is refreshed only every few commits,
        # while the replay below runs an exact analysis immediately.
        replay = fresh_evaluator(seed)
        replay.install_solution(result.best_solution)
        assert replay.cost() == pytest.approx(result.best_cost, abs=0.05)
