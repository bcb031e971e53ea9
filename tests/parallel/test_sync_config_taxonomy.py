"""Unit tests for the sync policy, parallel parameters and taxonomy classification."""

from __future__ import annotations

import pytest

from repro.errors import ParallelSearchError
from repro.parallel import ParallelSearchParams, SyncPolicy, classify
from repro.parallel.taxonomy import (
    CommunicationType,
    ControlCardinality,
    ParallelisationStrategy,
    SearchDifferentiation,
)


class TestSyncPolicy:
    def test_homogeneous_waits_for_all(self):
        policy = SyncPolicy(mode="homogeneous")
        assert not policy.is_heterogeneous
        assert policy.report_threshold(8) == 8
        assert not policy.should_interrupt(received=7, num_children=8)

    def test_heterogeneous_half_threshold(self):
        policy = SyncPolicy(mode="heterogeneous", report_fraction=0.5)
        assert policy.report_threshold(8) == 4
        assert policy.report_threshold(5) == 3  # ceil(2.5)
        assert policy.report_threshold(1) == 1

    def test_should_interrupt_boundaries(self):
        policy = SyncPolicy(mode="heterogeneous", report_fraction=0.5)
        assert not policy.should_interrupt(received=3, num_children=8)
        assert policy.should_interrupt(received=4, num_children=8)
        # never interrupt once everyone has reported
        assert not policy.should_interrupt(received=8, num_children=8)

    def test_full_fraction_equals_homogeneous_behaviour(self):
        policy = SyncPolicy(mode="heterogeneous", report_fraction=1.0)
        assert policy.report_threshold(6) == 6
        assert not policy.should_interrupt(received=5, num_children=6)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ParallelSearchError):
            SyncPolicy(mode="sometimes")  # type: ignore[arg-type]

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ParallelSearchError):
            SyncPolicy(report_fraction=0.0)

    def test_invalid_child_count_rejected(self):
        with pytest.raises(ParallelSearchError):
            SyncPolicy().report_threshold(0)


class TestParallelSearchParams:
    def test_defaults_match_paper_setup(self):
        params = ParallelSearchParams()
        assert params.num_tsws == 4
        assert params.sync_mode == "heterogeneous"
        assert params.report_fraction == 0.5
        assert params.diversify

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_tsws": 0},
            {"clws_per_tsw": 0},
            {"global_iterations": 0},
            {"sync_mode": "bogus"},
            {"report_fraction": 0.0},
            {"report_fraction": 1.5},
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ParallelSearchError):
            ParallelSearchParams(**kwargs)

    def test_with_replaces(self):
        params = ParallelSearchParams(num_tsws=2)
        assert params.with_(num_tsws=6).num_tsws == 6
        assert params.num_tsws == 2


class TestTaxonomy:
    def test_paper_configuration_classification(self):
        params = ParallelSearchParams(num_tsws=4, clws_per_tsw=4, diversify=True)
        classification = classify(params)
        assert classification.high_level_control is ControlCardinality.P_CONTROL
        assert classification.low_level_control is ControlCardinality.ONE_CONTROL
        assert classification.communication is CommunicationType.RIGID_SYNCHRONIZATION
        assert classification.differentiation is SearchDifferentiation.MPSS
        assert ParallelisationStrategy.MULTI_SEARCH_THREADS in classification.strategies
        assert ParallelisationStrategy.FUNCTIONAL_DECOMPOSITION in classification.strategies

    def test_single_tsw_is_one_control_spss(self):
        params = ParallelSearchParams(num_tsws=1, clws_per_tsw=2, diversify=True)
        classification = classify(params)
        assert classification.high_level_control is ControlCardinality.ONE_CONTROL
        assert classification.differentiation is SearchDifferentiation.SPSS

    def test_no_diversification_is_spss(self):
        params = ParallelSearchParams(num_tsws=4, clws_per_tsw=1, diversify=False)
        assert classify(params).differentiation is SearchDifferentiation.SPSS

    def test_describe_mentions_all_dimensions(self):
        text = classify(ParallelSearchParams()).describe()
        assert "p-control" in text
        assert "RS" in text
