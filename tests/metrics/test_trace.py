"""Unit and property-based tests for cost traces."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExperimentError
from repro.metrics import CostTrace


class TestConstruction:
    def test_from_pairs(self):
        trace = CostTrace.from_pairs([(0, 1.0), (1, 0.8)], label="run")
        assert len(trace) == 2
        assert trace.label == "run"

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            CostTrace(points=())

    def test_decreasing_times_rejected(self):
        with pytest.raises(ExperimentError, match="non-decreasing"):
            CostTrace(points=((1.0, 0.5), (0.5, 0.4)))


class TestQueries:
    @pytest.fixture()
    def trace(self):
        return CostTrace.from_pairs([(0, 1.0), (1, 0.8), (2, 0.9), (3, 0.6), (4, 0.7)])

    def test_best_and_final(self, trace):
        assert trace.best_cost == pytest.approx(0.6)
        assert trace.costs[-1] == pytest.approx(0.7)
        assert trace.duration == pytest.approx(4.0)

    def test_time_to_reach(self, trace):
        assert trace.time_to_reach(1.0) == 0
        assert trace.time_to_reach(0.8) == 1
        assert trace.time_to_reach(0.65) == 3
        assert trace.time_to_reach(0.1) is None

    def test_envelope_is_monotone(self, trace):
        envelope = trace.envelope()
        costs = envelope.costs
        assert all(b <= a for a, b in zip(costs, costs[1:]))
        assert envelope.costs[-1] == pytest.approx(0.6)

    def test_cost_at(self, trace):
        assert trace.cost_at(-1.0) == pytest.approx(1.0)
        assert trace.cost_at(0.5) == pytest.approx(1.0)
        assert trace.cost_at(2.5) == pytest.approx(0.8)  # best so far at t=2.5
        assert trace.cost_at(10.0) == pytest.approx(0.6)

    def test_times_and_costs(self, trace):
        assert trace.times == (0, 1, 2, 3, 4)
        assert trace.costs == (1.0, 0.8, 0.9, 0.6, 0.7)


class TestTraceProperties:
    @settings(max_examples=80, deadline=None)
    @given(
        costs=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=40),
    )
    def test_envelope_below_raw_and_monotone(self, costs):
        trace = CostTrace.from_pairs([(float(i), c) for i, c in enumerate(costs)])
        envelope = trace.envelope()
        assert all(e <= c + 1e-12 for e, c in zip(envelope.costs, trace.costs))
        assert all(b <= a + 1e-12 for a, b in zip(envelope.costs, envelope.costs[1:]))
        assert envelope.best_cost == pytest.approx(trace.best_cost)

    @settings(max_examples=80, deadline=None)
    @given(
        costs=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=40),
        threshold=st.floats(0.0, 10.0),
    )
    def test_time_to_reach_consistency(self, costs, threshold):
        trace = CostTrace.from_pairs([(float(i), c) for i, c in enumerate(costs)])
        moment = trace.time_to_reach(threshold)
        if moment is None:
            assert all(c > threshold for c in trace.costs)
        else:
            assert trace.cost_at(moment) <= threshold
            # no earlier point reaches the threshold
            earlier = [c for t, c in trace.points if t < moment]
            assert all(c > threshold for c in earlier)
