"""Unit tests for swap/compound moves and the step-wise builder.

The builder only talks to the evaluator protocol, so its tests run on both
registered domains: a placement of ``mini64`` and the QAP ``rand32``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import get_domain
from repro.errors import TabuSearchError
from repro.placement import CostEvaluator, Layout, load_benchmark, random_placement
from repro.tabu import (
    CompoundMove,
    CompoundMoveBuilder,
    SwapMove,
    full_range,
)


@pytest.fixture(params=["placement", "qap"])
def evaluator(request):
    if request.param == "placement":
        layout = Layout(load_benchmark("mini64"))
        return CostEvaluator(random_placement(layout, seed=13))
    problem = get_domain("qap").build_problem("rand32", reference_seed=0)
    return problem.make_evaluator(problem.random_solution(seed=13))


class TestSwapMove:
    def test_pair_is_canonical(self):
        assert SwapMove(cell_a=7, cell_b=3, cost_after=0.5).pair == (3, 7)
        assert SwapMove(cell_a=3, cell_b=7, cost_after=0.5).pair == (3, 7)


class TestCompoundMoveProperties:
    def test_gain_and_improving(self):
        move = CompoundMove(
            swaps=[SwapMove(0, 1, 0.4)], cost_before=0.5, cost_after=0.4, trials=5
        )
        assert move.gain == pytest.approx(0.1)
        assert move.is_improving
        assert move.depth == 1
        assert move.pairs() == [(0, 1)]

    def test_non_improving(self):
        move = CompoundMove(swaps=[], cost_before=0.5, cost_after=0.6)
        assert not move.is_improving
        assert move.gain == pytest.approx(-0.1)


def _builder(evaluator, **kwargs):
    """A builder over the evaluator's whole cell space."""
    return CompoundMoveBuilder(evaluator, full_range(evaluator.num_cells), **kwargs)


def _finish(evaluator, rng, **kwargs):
    """Run a builder over the whole range to completion, as the driver does."""
    builder = _builder(evaluator, **kwargs)
    while builder.wants_more_steps():
        builder.step(rng)
    return builder.finalize()


SEEDED_PAIRS = np.array([(0, 1), (2, 3), (4, 5), (6, 7)], dtype=np.int64)


class TestFinishedBuilder:
    def test_invalid_parameters_rejected(self, evaluator, rng):
        with pytest.raises(TabuSearchError):
            _finish(evaluator, rng, pairs_per_step=0, depth=3)
        with pytest.raises(TabuSearchError):
            _finish(evaluator, rng, pairs_per_step=3, depth=0)

    def test_cost_after_matches_evaluator_state(self, evaluator, rng):
        move = _finish(evaluator, rng, pairs_per_step=4, depth=3)
        assert move.cost_after == pytest.approx(evaluator.cost())
        evaluator.verify_consistency()

    def test_move_is_never_empty(self, evaluator, rng):
        # tabu search relies on accepting (possibly degrading) moves
        for _ in range(5):
            move = _finish(evaluator, rng, pairs_per_step=3, depth=2)
            assert move.depth >= 1

    def test_respects_depth_limit(self, evaluator, rng):
        move = _finish(evaluator, rng, pairs_per_step=3, depth=4, early_accept=False)
        assert move.depth <= 4
        assert move.trials == 4 * 3

    def test_best_prefix_is_best_seen(self, evaluator, rng):
        # without early accept the move ends on the lowest cost of every
        # prefix explored, truncated to the shortest such prefix
        builder = _builder(evaluator, pairs_per_step=5, depth=5, early_accept=False)
        seen = []
        while builder.wants_more_steps():
            builder.step(rng)
            seen.append(evaluator.cost())
        move = builder.finalize()
        assert move.cost_after == min(seen)
        assert move.depth == seen.index(min(seen)) + 1
        assert evaluator.cost() == min(seen)

    def test_early_accept_stops_on_improvement(self, evaluator, rng):
        for _ in range(5):
            start = evaluator.cost()
            move = _finish(evaluator, rng, pairs_per_step=8, depth=5, early_accept=True)
            # the move stops at the first improving step, or runs to full depth
            assert move.truncated_early == (move.cost_after < start)
            if move.truncated_early:
                assert move.is_improving
                assert move.trials == 8 * move.depth
            else:
                assert move.trials == 8 * 5


class TestCompoundMoveBuilder:
    def test_step_by_step_matches_semantics(self, evaluator, rng):
        builder = _builder(evaluator, pairs_per_step=4, depth=3, early_accept=False)
        steps = 0
        while builder.wants_more_steps():
            trials = builder.step(rng)
            assert trials == 4
            steps += 1
        assert steps == 3
        move = builder.finalize()
        assert move.trials == 12
        assert move.cost_after == pytest.approx(evaluator.cost())

    def test_step_commits_the_cheapest_seeded_pair(self, evaluator, rng):
        costs = evaluator.evaluate_swaps_batch(SEEDED_PAIRS)
        builder = _builder(evaluator, pairs_per_step=4, depth=1)
        builder.seed_step(SEEDED_PAIRS, costs)
        assert builder.step(rng) == 4
        move = builder.finalize()
        best = int(np.argmin(costs))
        assert move.pairs() == [tuple(SEEDED_PAIRS[best].tolist())]
        assert move.swaps[0].cost_after == costs[best]

    def test_seed_step_only_before_the_first_step(self, evaluator, rng):
        costs = evaluator.evaluate_swaps_batch(SEEDED_PAIRS)
        seeded = _builder(evaluator, pairs_per_step=4, depth=2)
        seeded.seed_step(SEEDED_PAIRS, costs)
        with pytest.raises(TabuSearchError, match="before the first step"):
            seeded.seed_step(SEEDED_PAIRS, costs)
        stepped = _builder(evaluator, pairs_per_step=4, depth=2)
        stepped.step(rng)
        with pytest.raises(TabuSearchError, match="before the first step"):
            stepped.seed_step(SEEDED_PAIRS, costs)

    def test_seeded_pairs_and_costs_must_match(self, evaluator):
        costs = evaluator.evaluate_swaps_batch(SEEDED_PAIRS)
        builder = _builder(evaluator, pairs_per_step=4, depth=1)
        with pytest.raises(TabuSearchError, match="matching length"):
            builder.seed_step(SEEDED_PAIRS, costs[:3])

    def test_admissible_hook_steers_the_choice(self, evaluator, rng):
        # forbid the cheapest pair: the step commits the cheapest of the rest
        costs = evaluator.evaluate_swaps_batch(SEEDED_PAIRS)
        cheapest = int(np.argmin(costs))
        hook_calls = []

        def admissible(pairs, scored):
            hook_calls.append((pairs.copy(), scored.copy()))
            return np.arange(len(scored)) != cheapest

        builder = _builder(evaluator, pairs_per_step=4, depth=1, admissible=admissible)
        builder.seed_step(SEEDED_PAIRS, costs)
        builder.step(rng)
        move = builder.finalize()
        allowed = [k for k in range(len(costs)) if k != cheapest]
        chosen = min(allowed, key=lambda k: (costs[k], k))
        assert move.pairs() == [tuple(SEEDED_PAIRS[chosen].tolist())]
        # the hook scored exactly the seeded batch
        assert len(hook_calls) == 1
        assert np.array_equal(hook_calls[0][0], SEEDED_PAIRS)
        assert np.array_equal(hook_calls[0][1], costs)

    def test_every_pair_masked_falls_back_to_the_cheapest(self, evaluator, rng):
        # the builder must always commit something; the driver's move-level
        # tabu check guards the final acceptance
        costs = evaluator.evaluate_swaps_batch(SEEDED_PAIRS)
        builder = _builder(
            evaluator,
            pairs_per_step=4,
            depth=1,
            admissible=lambda pairs, scored: np.zeros(len(scored), dtype=bool),
        )
        builder.seed_step(SEEDED_PAIRS, costs)
        builder.step(rng)
        move = builder.finalize()
        assert move.pairs() == [tuple(SEEDED_PAIRS[int(np.argmin(costs))].tolist())]

    def test_finalize_twice_rejected(self, evaluator, rng):
        builder = _builder(evaluator, pairs_per_step=2, depth=1)
        builder.step(rng)
        builder.finalize()
        with pytest.raises(TabuSearchError):
            builder.finalize()

    def test_step_after_finalize_rejected(self, evaluator, rng):
        builder = _builder(evaluator, pairs_per_step=2, depth=2)
        builder.step(rng)
        builder.finalize()
        with pytest.raises(TabuSearchError):
            builder.step(rng)

    def test_interrupted_builder_returns_partial_move(self, evaluator, rng):
        builder = _builder(evaluator, pairs_per_step=3, depth=10, early_accept=False)
        builder.step(rng)
        builder.step(rng)
        move = builder.finalize()  # interrupted after 2 of 10 steps
        assert 1 <= move.depth <= 2
        assert move.trials == 6

    def test_cost_before_recorded(self, evaluator, rng):
        start = evaluator.cost()
        builder = _builder(evaluator, pairs_per_step=2, depth=1)
        builder.step(rng)
        move = builder.finalize()
        assert move.cost_before == pytest.approx(start)
