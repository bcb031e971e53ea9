"""Allocation-regression and large-instance parity tests for the STA kernel.

``TimingAnalyzer.analyze`` runs once per accepted move, so at the 10k-cell
scale its per-call allocations dominate the commit cost if it keeps
materialising fresh edge/level arrays.  The analyzer reuses a scratch pack
after the first call; these tests pin that behaviour (tracemalloc bar) and
re-check the vectorised propagation against the scalar reference oracle on
the large tier.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from oracles.kernels import sta_reference
from repro.placement import Layout, load_benchmark, random_placement
from repro.placement.timing import TimingAnalyzer

#: Steady-state allocation allowance per analyze() call.  The result's
#: arrival array (num_cells float64) is returned to the caller and must be
#: a fresh copy (~80 KB at 10k cells); the bar leaves room for it plus
#: interpreter noise, but not for re-materialising the per-edge pipeline
#: (~1 MB at big10k).
STEADY_STATE_BUDGET_BYTES = 512 * 1024


@pytest.fixture(scope="module")
def big2k_placement():
    layout = Layout(load_benchmark("big2k"))
    return random_placement(layout, seed=3)


@pytest.fixture(scope="module")
def big10k_placement():
    layout = Layout(load_benchmark("big10k"))
    return random_placement(layout, seed=3)


class TestSteadyStateAllocations:
    @pytest.mark.parametrize("circuit_fixture", ["big2k_placement", "big10k_placement"])
    def test_analyze_reuses_scratch(self, circuit_fixture, request):
        placement = request.getfixturevalue(circuit_fixture)
        analyzer = TimingAnalyzer(placement.netlist)
        assert not analyzer._use_scalar_propagation  # big tier is vectorised
        analyzer.analyze(placement)  # first call builds the scratch pack
        tracemalloc.start()
        analyzer.analyze(placement)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < STEADY_STATE_BUDGET_BYTES, f"analyze() allocated {peak} bytes"

    def test_returned_arrival_survives_next_analyze(self, big2k_placement):
        analyzer = TimingAnalyzer(big2k_placement.netlist)
        first = analyzer.analyze(big2k_placement)
        kept = first.arrival.copy()
        analyzer.analyze(big2k_placement)  # would clobber an aliased scratch
        assert np.array_equal(first.arrival, kept)


class TestLargeTierParity:
    @pytest.mark.parametrize("circuit_fixture", ["big2k_placement", "big10k_placement"])
    def test_analyze_matches_reference(self, circuit_fixture, request):
        placement = request.getfixturevalue(circuit_fixture)
        analyzer = TimingAnalyzer(placement.netlist)
        fast = analyzer.analyze(placement)
        slow = sta_reference(analyzer, placement)
        assert fast.critical_delay == slow.critical_delay
        assert np.array_equal(fast.arrival, slow.arrival)
        assert fast.critical_path == slow.critical_path
