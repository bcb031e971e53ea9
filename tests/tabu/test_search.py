"""Unit tests for the serial tabu-search engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.placement import CostEvaluator, Layout, load_benchmark, random_placement
from repro.tabu import (
    CompoundMove,
    SwapMove,
    TabuSearch,
    TabuSearchParams,
    TerminationCriteria,
    partition_cells,
)


def make_search(seed: int = 1, **param_overrides) -> TabuSearch:
    layout = Layout(load_benchmark("mini64"))
    evaluator = CostEvaluator(random_placement(layout, seed=seed))
    params = TabuSearchParams(**param_overrides) if param_overrides else TabuSearchParams()
    return TabuSearch(evaluator, params, seed=seed)


class TestConstruction:
    def test_initial_best_is_current(self):
        search = make_search()
        assert search.best_cost == pytest.approx(search.current_cost)
        assert search.iteration == 0

    def test_default_range_covers_every_cell(self):
        search = make_search()
        assert search.cell_range.cells == tuple(range(64))


class TestStep:
    def test_step_advances_iteration_and_tracks_best(self):
        search = make_search()
        result = search.step()
        assert result.iteration == 1
        assert search.iteration == 1
        assert search.best_cost <= result.cost_after + 1e-12

    def test_every_swap_starts_in_the_search_range(self):
        layout = Layout(load_benchmark("mini64"))
        evaluator = CostEvaluator(random_placement(layout, seed=4))
        cell_range = partition_cells(64, 3)[1]
        search = TabuSearch(evaluator, TabuSearchParams(), cell_range=cell_range, seed=5)
        moves = [search.step().move for _ in range(15)]
        swaps = [swap for move in moves if move is not None for swap in move.swaps]
        assert swaps
        assert all(swap.cell_a in cell_range for swap in swaps)
        assert any(swap.cell_b not in cell_range for swap in swaps)

    def test_set_cell_range_repoints_candidate_draws(self):
        search = make_search(seed=4)
        first, second = partition_cells(64, 2)
        search.set_cell_range(first)
        for _ in range(5):
            search.step()
        search.set_cell_range(second)
        assert search.cell_range == second
        moves = [search.step().move for _ in range(10)]
        swaps = [swap for move in moves if move is not None for swap in move.swaps]
        assert swaps
        assert all(swap.cell_a in second for swap in swaps)

    def test_step_usually_accepts(self):
        search = make_search()
        accepted = sum(search.step().accepted for _ in range(10))
        assert accepted >= 8  # with a fresh tabu list nearly everything is acceptable

    def test_best_solution_matches_best_cost(self):
        search = make_search()
        for _ in range(15):
            search.step()
        best = search.best_solution
        evaluator = CostEvaluator(
            random_placement(search.evaluator.placement.layout, seed=0),
            reference=search.evaluator.reference,
        )
        evaluator.install_solution(best)
        # small tolerance: the search's timing term is a surrogate refreshed
        # every few commits, the replay above is exact
        assert evaluator.cost() == pytest.approx(search.best_cost, abs=0.05)


class TestRun:
    def test_run_improves_cost(self):
        search = make_search()
        initial = search.current_cost
        result = search.run(TerminationCriteria(max_iterations=30))
        assert result.best_cost < initial
        assert result.iterations == 30
        assert len(result.trace) == 30
        assert result.evaluations > 0

    def test_run_stops_at_target_cost(self):
        search = make_search()
        generous_target = search.current_cost * 0.999
        result = search.run(TerminationCriteria(max_iterations=100, target_cost=generous_target))
        assert result.iterations < 100

    def test_trace_best_is_monotone(self):
        search = make_search()
        result = search.run(TerminationCriteria(max_iterations=25))
        bests = [point[3] for point in result.trace]
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(bests, bests[1:]))

    def test_determinism_same_seed(self):
        a = make_search(seed=7).run(TerminationCriteria(max_iterations=15))
        b = make_search(seed=7).run(TerminationCriteria(max_iterations=15))
        assert a.best_cost == pytest.approx(b.best_cost)
        assert np.array_equal(a.best_solution, b.best_solution)

    def test_different_seeds_differ(self):
        a = make_search(seed=7).run(TerminationCriteria(max_iterations=15))
        b = make_search(seed=8).run(TerminationCriteria(max_iterations=15))
        assert not np.array_equal(a.best_solution, b.best_solution)


class TestTabuBehaviour:
    def test_tabu_list_grows_and_expires(self):
        search = make_search(tabu_tenure=4)
        for _ in range(10):
            search.step()
        assert len(search.tabu_list) <= 4 * search.params.move_depth + 4

    def test_zero_tenure_never_blocks(self):
        search = make_search(tabu_tenure=0)
        results = [search.step() for _ in range(10)]
        assert all(not r.was_tabu for r in results)

    def test_tabu_candidate_that_does_not_beat_best_is_rejected_and_stalls(self):
        search = make_search(tabu_tenure=50)
        # hand-craft a candidate, accept it, then re-offer the same pair: it
        # is tabu, and a cost equal to the best does not aspire
        first = search.consider_candidates(
            [CompoundMove(swaps=[SwapMove(1, 2, 0.0)], cost_before=1.0, cost_after=0.0)]
        )
        assert first.accepted
        stall = search.export_state().stall
        again = CompoundMove(
            swaps=[SwapMove(2, 1, 0.0)], cost_before=1.0, cost_after=search.best_cost
        )
        second = search.consider_candidates([again])
        assert not second.accepted
        assert second.was_tabu
        assert second.move is None
        assert search.export_state().stall == stall + 1

    def test_aspiration_allows_tabu_move_that_beats_best(self):
        search = make_search(tabu_tenure=50)
        move = CompoundMove(
            swaps=[SwapMove(1, 2, 0.0)], cost_before=1.0, cost_after=0.0, trials=1
        )
        search.consider_candidates([move])
        # the same pair again: tabu, but its cost is below the best so far
        # (the reported cost is re-derived by the engine from the evaluator)
        better = CompoundMove(
            swaps=[SwapMove(1, 2, 0.0)], cost_before=1.0, cost_after=search.best_cost - 1.0
        )
        result = search.consider_candidates([better])
        assert result.accepted
        assert result.was_tabu
        assert result.used_aspiration

    def test_empty_candidates_stall(self):
        search = make_search()
        result = search.consider_candidates([])
        assert not result.accepted
        assert result.move is None

    def test_falls_back_to_the_next_best_candidate(self):
        search = make_search(tabu_tenure=50)
        search.consider_candidates(
            [CompoundMove(swaps=[SwapMove(1, 2, 0.0)], cost_before=1.0, cost_after=0.0)]
        )
        best = search.best_cost
        # the cheapest candidate reuses the tabu pair and does not beat the
        # best; the next cheapest is not tabu and wins
        tabu_move = CompoundMove(
            swaps=[SwapMove(2, 1, 0.0)], cost_before=1.0, cost_after=best
        )
        free_move = CompoundMove(
            swaps=[SwapMove(3, 4, 0.0)], cost_before=1.0, cost_after=best + 1.0
        )
        result = search.consider_candidates([free_move, tabu_move])
        assert result.accepted
        assert result.move is free_move
        assert not result.was_tabu
        assert not result.used_aspiration

    def test_empty_moves_are_skipped(self):
        search = make_search()
        empty = CompoundMove(swaps=[], cost_before=1.0, cost_after=-1.0)
        real = CompoundMove(swaps=[SwapMove(5, 9, 0.0)], cost_before=1.0, cost_after=2.0)
        result = search.consider_candidates([empty, real])
        assert result.accepted
        assert result.move is real

    def test_degrading_move_is_accepted_and_counts_as_a_stall(self):
        search = make_search()
        best = search.best_cost
        worse = _swap_move(search, improving=False)
        result = search.consider_candidates([worse])
        assert result.accepted
        assert not result.was_tabu
        assert result.cost_after > best
        assert search.best_cost == best
        assert search.export_state().stall == 1

    def test_new_best_resets_the_stall_counter(self):
        search = make_search()
        search.consider_candidates([])
        search.consider_candidates([])
        assert search.export_state().stall == 2
        result = search.consider_candidates([_swap_move(search, improving=True)])
        assert result.accepted
        assert search.best_cost == result.cost_after
        assert search.export_state().stall == 0


def _swap_move(search: TabuSearch, *, improving: bool) -> CompoundMove:
    """A one-swap move from the current solution that improves on (or
    degrades) the current cost, priced by the evaluator's batch path."""
    evaluator = search.evaluator
    pairs = np.array([(0, k) for k in range(1, evaluator.num_cells)], dtype=np.int64)
    costs = evaluator.evaluate_swaps_batch(pairs)
    index = int(np.argmin(costs) if improving else np.argmax(costs))
    current = evaluator.cost()
    assert (costs[index] < current) if improving else (costs[index] > current)
    a, b = pairs[index].tolist()
    return CompoundMove(
        swaps=[SwapMove(a, b, float(costs[index]))],
        cost_before=current,
        cost_after=float(costs[index]),
    )


def adopt(search, solution):
    """A TSW's full install: install on the evaluator, then note the best."""
    cost = search.evaluator.install_solution(solution)
    search.note_best()
    return cost


class TestAdoptSolution:
    def test_adopt_better_solution_updates_best(self):
        search = make_search()
        # run a second search to obtain a better solution
        donor = make_search(seed=2)
        donor.run(TerminationCriteria(max_iterations=30))
        cost = adopt(search, donor.best_solution)
        assert search.current_cost == pytest.approx(
            search.evaluator.cost()
        )
        assert search.best_cost == cost
        assert np.array_equal(search.best_solution, donor.best_solution)

    def test_adopt_keeps_the_search_memories(self):
        search = make_search(tabu_tenure=10)
        for _ in range(5):
            search.step()
        payload = search.tabu_list.to_payload()
        counts = search.frequency_memory.counts.copy()
        iteration = search.iteration
        donor = make_search(seed=2)
        adopt(search, donor.evaluator.snapshot())
        assert search.tabu_list.to_payload() == payload
        assert np.array_equal(search.frequency_memory.counts, counts)
        assert search.iteration == iteration

    def test_adopting_a_worse_solution_keeps_the_best(self):
        search = make_search()
        search.run(TerminationCriteria(max_iterations=20))
        best_cost, best_solution = search.best_cost, search.best_solution
        worse = make_search(seed=3).evaluator.snapshot()
        cost = adopt(search, worse)
        assert cost > best_cost
        assert search.current_cost == pytest.approx(cost)
        assert search.best_cost == best_cost
        assert np.array_equal(search.best_solution, best_solution)

    def test_adopt_tabu_list_installs_payload(self):
        donor = make_search(seed=2, tabu_tenure=10)
        for _ in range(5):
            donor.step()
        payload = donor.tabu_list.to_payload()
        assert payload  # the donor actually recorded attributes
        search = make_search(tabu_tenure=10)
        installed = search.adopt_tabu_list(payload)
        assert search.tabu_list is installed
        assert search.tabu_list.to_payload() == payload
        assert search.tabu_list.tenure == search.params.tabu_tenure

    def test_adopt_tabu_list_explicit_tenure(self):
        search = make_search(tabu_tenure=10)
        installed = search.adopt_tabu_list((), tenure=3)
        assert installed.tenure == 3
        assert len(installed) == 0


class TestDiversifyIntegration:
    def test_diversify_depth_capped_by_range_size(self):
        layout = Layout(load_benchmark("mini64"))
        evaluator = CostEvaluator(random_placement(layout, seed=6))
        small_range = partition_cells(64, 8)[0]  # 8 cells -> cap = 2 swaps
        search = TabuSearch(evaluator, TabuSearchParams(), cell_range=small_range, seed=3)
        search.diversify(depth=20)
        # every performed swap records both of its cells in the frequency memory
        swaps_performed = search.frequency_memory.counts.sum() // 2
        assert swaps_performed <= max(1, len(small_range) // 4)

    def test_diversify_changes_solution_but_keeps_best(self):
        search = make_search()
        search.run(TerminationCriteria(max_iterations=10))
        best_before = search.best_cost
        search.diversify(depth=5)
        assert search.best_cost <= best_before + 1e-12


class TestStateRoundTrip:
    def test_installed_state_continues_the_trajectory(self):
        """Rewind the evaluator and install an exported state into a fresh
        search: it walks the rest of the original run step for step."""
        original = make_search(seed=5, tabu_tenure=6)
        for _ in range(6):
            original.step()
        state = original.export_state()
        evaluator_state = original.evaluator.save_state()
        expected = [original.step() for _ in range(8)]

        original.evaluator.restore_state(evaluator_state)
        resumed = TabuSearch(original.evaluator, original.params, seed=99)
        resumed.install_state(state)
        assert resumed.tabu_list.to_payload() == state.tabu_payload
        got = [resumed.step() for _ in range(8)]
        assert [(r.iteration, r.accepted, r.cost_after, r.best_cost) for r in got] == [
            (r.iteration, r.accepted, r.cost_after, r.best_cost) for r in expected
        ]
        assert [r.move.pairs() if r.move else None for r in got] == [
            r.move.pairs() if r.move else None for r in expected
        ]
        assert resumed.best_cost == original.best_cost
        assert np.array_equal(resumed.best_solution, original.best_solution)
