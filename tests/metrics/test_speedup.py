"""Unit tests for the time-to-quality speedup metric."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.metrics import (
    CostTrace,
    common_quality_threshold,
    speedup_curve,
    time_to_quality,
)


def linear_trace(rate: float, label: str = "") -> CostTrace:
    """Cost falls from 1.0 at `rate` per unit time, sampled every 0.5 units."""
    points = [(t * 0.5, max(0.0, 1.0 - rate * t * 0.5)) for t in range(21)]
    return CostTrace.from_pairs(points, label=label)


class TestTimeToQuality:
    def test_faster_trace_reaches_sooner(self):
        slow = linear_trace(0.05)
        fast = linear_trace(0.10)
        assert time_to_quality(fast, 0.5) < time_to_quality(slow, 0.5)

    def test_unreachable_quality_is_none(self):
        assert time_to_quality(linear_trace(0.01), -1.0) is None


class TestCommonThreshold:
    def test_threshold_reached_by_all(self):
        traces = [linear_trace(0.02), linear_trace(0.05), linear_trace(0.10)]
        threshold = common_quality_threshold(traces)
        assert all(trace.time_to_reach(threshold) is not None for trace in traces)
        # the threshold equals the worst trace's best cost
        assert threshold == pytest.approx(max(t.best_cost for t in traces))

    def test_slack_relaxes_threshold(self):
        traces = [linear_trace(0.05)]
        assert common_quality_threshold(traces, slack=0.1) > common_quality_threshold(traces)

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            common_quality_threshold([])

    def test_negative_slack_rejected(self):
        with pytest.raises(ExperimentError):
            common_quality_threshold([linear_trace(0.05)], slack=-0.1)


class TestSpeedupCurve:
    def test_curve_shape(self):
        traces = {1: linear_trace(0.05), 2: linear_trace(0.08), 4: linear_trace(0.12)}
        points = speedup_curve(traces, baseline_workers=1)
        assert [p.workers for p in points] == [1, 2, 4]
        assert points[0].speedup == pytest.approx(1.0)
        assert points[1].speedup > 1.0
        assert points[2].speedup > points[1].speedup
        assert all(p.threshold == points[0].threshold for p in points)

    def test_missing_baseline_rejected(self):
        with pytest.raises(ExperimentError, match="baseline"):
            speedup_curve({2: linear_trace(0.1)}, baseline_workers=1)

    def test_explicit_threshold_used(self):
        traces = {1: linear_trace(0.05), 2: linear_trace(0.10)}
        points = speedup_curve(traces, baseline_workers=1, threshold=0.8)
        assert points[0].threshold == pytest.approx(0.8)

    def test_unreachable_explicit_threshold_rejected(self):
        traces = {1: linear_trace(0.01), 2: linear_trace(0.02)}
        with pytest.raises(ExperimentError, match="does not reach"):
            speedup_curve(traces, baseline_workers=1, threshold=-1.0)

    def test_configuration_missing_threshold_gets_none_speedup(self):
        good = linear_trace(0.10)
        bad = CostTrace.from_pairs([(0.0, 1.0), (5.0, 0.95)])
        points = speedup_curve({1: good, 2: bad}, baseline_workers=1, threshold=0.5)
        by_workers = {p.workers: p for p in points}
        assert by_workers[1].speedup == pytest.approx(1.0)
        assert by_workers[2].speedup is None
