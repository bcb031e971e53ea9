"""Unit tests for search parameters and termination."""

from __future__ import annotations

import pytest

from repro.errors import TabuSearchError
from repro.tabu import TabuSearchParams, TerminationCriteria


class TestTabuSearchParams:
    def test_defaults_valid(self):
        params = TabuSearchParams()
        assert params.tabu_tenure > 0
        assert params.local_iterations > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tabu_tenure": -1},
            {"local_iterations": 0},
            {"pairs_per_step": 0},
            {"move_depth": 0},
            {"diversification_depth": -1},
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(TabuSearchError):
            TabuSearchParams(**kwargs)

    def test_with_replaces_fields(self):
        params = TabuSearchParams(tabu_tenure=5)
        updated = params.with_(tabu_tenure=9)
        assert updated.tabu_tenure == 9
        assert params.tabu_tenure == 5

    def test_scaled_for_circuit_grows_tenure(self):
        params = TabuSearchParams(tabu_tenure=3)
        scaled = params.scaled_for_circuit(2500)
        assert scaled.tabu_tenure >= 25 // 2
        assert scaled.tabu_tenure >= params.tabu_tenure

    def test_scaled_for_circuit_invalid(self):
        with pytest.raises(TabuSearchError):
            TabuSearchParams().scaled_for_circuit(0)


class TestTerminationCriteria:
    def test_requires_at_least_one_criterion(self):
        with pytest.raises(TabuSearchError):
            TerminationCriteria()

    def test_max_iterations(self):
        criteria = TerminationCriteria(max_iterations=5)
        assert not criteria.should_stop(iteration=4, best_cost=1.0, stall=0)
        assert criteria.should_stop(iteration=5, best_cost=1.0, stall=0)

    def test_target_cost(self):
        criteria = TerminationCriteria(target_cost=0.3)
        assert not criteria.should_stop(iteration=0, best_cost=0.5, stall=0)
        assert criteria.should_stop(iteration=0, best_cost=0.3, stall=0)

    def test_max_stall(self):
        criteria = TerminationCriteria(max_stall=3)
        assert not criteria.should_stop(iteration=10, best_cost=1.0, stall=2)
        assert criteria.should_stop(iteration=10, best_cost=1.0, stall=3)

    def test_invalid_values_rejected(self):
        with pytest.raises(TabuSearchError):
            TerminationCriteria(max_iterations=0)
        with pytest.raises(TabuSearchError):
            TerminationCriteria(max_stall=0)
