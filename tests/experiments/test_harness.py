"""Unit tests for the experiment harness (scales, presets, runners)."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    FULL_SCALE,
    QUICK_SCALE,
    ExperimentScale,
    circuits_for_scale,
    current_scale,
    params_for_circuit,
    run_configuration,
    trace_of,
)
from repro.experiments.harness import SCALE_ENV_VAR
from repro.metrics import CostTrace


class TestScales:
    def test_quick_scale_defaults(self):
        assert QUICK_SCALE.name == "quick"
        assert set(QUICK_SCALE.circuits) == {"highway", "c532", "c1355", "c3540"}

    def test_full_scale_is_heavier(self):
        assert FULL_SCALE.global_iterations > QUICK_SCALE.global_iterations
        assert FULL_SCALE.local_iterations > QUICK_SCALE.local_iterations

    def test_invalid_scale_rejected(self):
        with pytest.raises(ExperimentError):
            ExperimentScale(
                name="bad", global_iterations=0, local_iterations=1,
                pairs_per_step=1, move_depth=1, circuits=("highway",),
            )
        with pytest.raises(ExperimentError):
            ExperimentScale(
                name="bad", global_iterations=1, local_iterations=1,
                pairs_per_step=1, move_depth=1, circuits=(),
            )

    def test_current_scale_env_selection(self, monkeypatch):
        monkeypatch.setenv(SCALE_ENV_VAR, "full")
        assert current_scale() is FULL_SCALE
        monkeypatch.setenv(SCALE_ENV_VAR, "quick")
        assert current_scale() is QUICK_SCALE
        monkeypatch.delenv(SCALE_ENV_VAR)
        assert current_scale() is QUICK_SCALE

    def test_current_scale_unknown_rejected(self, monkeypatch):
        monkeypatch.setenv(SCALE_ENV_VAR, "enormous")
        with pytest.raises(ExperimentError, match="unknown experiment scale"):
            current_scale()

    def test_circuits_for_scale_override(self):
        assert circuits_for_scale(QUICK_SCALE, ["c532"]) == ("c532",)
        assert circuits_for_scale(QUICK_SCALE) == QUICK_SCALE.circuits


class TestParamsForCircuit:
    def test_params_follow_scale(self):
        params = params_for_circuit("highway", QUICK_SCALE, num_tsws=3, clws_per_tsw=2)
        assert params.num_tsws == 3
        assert params.clws_per_tsw == 2
        assert params.global_iterations == QUICK_SCALE.global_iterations
        assert params.tabu.local_iterations == QUICK_SCALE.local_iterations

    def test_tenure_scales_with_circuit_size(self):
        small = params_for_circuit("highway", QUICK_SCALE)
        large = params_for_circuit("c3540", QUICK_SCALE)
        assert large.tabu.tabu_tenure > small.tabu.tabu_tenure

    def test_iteration_overrides(self):
        params = params_for_circuit(
            "highway", QUICK_SCALE, global_iterations=9, local_iterations=2
        )
        assert params.global_iterations == 9
        assert params.tabu.local_iterations == 2


class TestRunConfiguration:
    def test_run_and_trace(self):
        params = params_for_circuit(
            "highway", QUICK_SCALE, num_tsws=2, clws_per_tsw=1,
            global_iterations=2, local_iterations=3,
        )
        result = run_configuration("highway", params)
        assert result.best_cost < result.initial_cost
        trace = trace_of(result, label="highway-run")
        assert isinstance(trace, CostTrace)
        assert trace.label == "highway-run"
        assert trace.best_cost == pytest.approx(min(c for _, c in result.trace))
