"""Unit tests for the static timing analysis and the incremental surrogate."""

from __future__ import annotations

import dataclasses
import gc
import pickle
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.errors import CostModelError
from repro.placement import (
    CellKind,
    Layout,
    NetlistBuilder,
    build_chain_netlist,
    load_benchmark,
    random_placement,
)
from repro.placement import timing
from repro.placement.timing import TimingAnalyzer, TimingModel, TimingState
from repro.problems.placement import PlacementProblem


class TestTimingModel:
    def test_negative_delay_rejected(self):
        with pytest.raises(CostModelError):
            TimingModel(wire_delay_per_unit=-0.1)


class TestAnalyzerOnChain:
    def test_zero_wire_delay_gives_sum_of_gate_delays(self):
        netlist = build_chain_netlist(num_gates=5)
        layout = Layout(netlist)
        placement = random_placement(layout, seed=0)
        analyzer = TimingAnalyzer(netlist, TimingModel(wire_delay_per_unit=0.0))
        result = analyzer.analyze(placement)
        # 5 gates of delay 1 each; pads contribute nothing
        assert result.critical_delay == pytest.approx(5.0)
        # path runs from the PI through all gates to the PO
        assert result.path_length == 7

    def test_wire_delay_increases_with_distance(self):
        netlist = build_chain_netlist(num_gates=5)
        layout = Layout(netlist)
        placement = random_placement(layout, seed=0)
        slow = TimingAnalyzer(netlist, TimingModel(wire_delay_per_unit=0.2)).analyze(placement)
        fast = TimingAnalyzer(netlist, TimingModel(wire_delay_per_unit=0.01)).analyze(placement)
        assert slow.critical_delay > fast.critical_delay

    def test_path_delay_matches_analysis(self):
        netlist = build_chain_netlist(num_gates=5)
        layout = Layout(netlist)
        placement = random_placement(layout, seed=1)
        analyzer = TimingAnalyzer(netlist)
        result = analyzer.analyze(placement)
        recomputed = analyzer.path_delay(placement, result.critical_path)
        assert recomputed == pytest.approx(result.critical_delay)


class TestSequentialBoundaries:
    def build_netlist_with_ff(self):
        builder = NetlistBuilder("ff")
        builder.add_cell("pi", kind=CellKind.PRIMARY_INPUT, delay=0.0)
        builder.add_cell("g1", delay=3.0)
        builder.add_cell("ff", kind=CellKind.SEQUENTIAL, delay=0.5)
        builder.add_cell("g2", delay=2.0)
        builder.add_cell("po", kind=CellKind.PRIMARY_OUTPUT, delay=0.0)
        builder.add_net("n1", driver="pi", sinks=["g1"])
        builder.add_net("n2", driver="g1", sinks=["ff"])
        builder.add_net("n3", driver="ff", sinks=["g2"])
        builder.add_net("n4", driver="g2", sinks=["po"])
        return builder.build()

    def test_paths_break_at_flip_flops(self):
        netlist = self.build_netlist_with_ff()
        layout = Layout(netlist)
        placement = random_placement(layout, seed=2)
        analyzer = TimingAnalyzer(netlist, TimingModel(wire_delay_per_unit=0.0))
        result = analyzer.analyze(placement)
        # two separate paths: pi->g1->ff (3.0) and ff->g2->po (0.5 + 2.0)
        assert result.critical_delay == pytest.approx(3.0)


class TestCycleDetection:
    def test_combinational_cycle_rejected(self):
        builder = NetlistBuilder("cyc")
        builder.add_cell("a", delay=1.0)
        builder.add_cell("b", delay=1.0)
        builder.add_net("n1", driver="a", sinks=["b"])
        builder.add_net("n2", driver="b", sinks=["a"])
        netlist = builder.build()
        with pytest.raises(CostModelError, match="cycle"):
            TimingAnalyzer(netlist)


class TestOnGeneratedCircuits:
    def test_positive_critical_delay(self):
        netlist = load_benchmark("mini64")
        layout = Layout(netlist)
        placement = random_placement(layout, seed=3)
        result = TimingAnalyzer(netlist).analyze(placement)
        assert result.critical_delay > 0
        assert len(result.critical_path) >= 2

    def test_arrival_times_non_negative(self):
        netlist = load_benchmark("mini64")
        layout = Layout(netlist)
        placement = random_placement(layout, seed=3)
        result = TimingAnalyzer(netlist).analyze(placement)
        assert np.all(result.arrival >= 0)


class TestTimingState:
    @pytest.fixture()
    def state(self):
        netlist = load_benchmark("mini64")
        layout = Layout(netlist)
        placement = random_placement(layout, seed=4)
        analyzer = TimingAnalyzer(netlist)
        return placement, TimingState(placement, analyzer, refresh_interval=4)

    def test_initial_delay_matches_exact(self, state):
        placement, timing = state
        assert timing.critical_delay == pytest.approx(timing.exact_delay())

    def test_delta_zero_for_cells_off_critical_path(self, state):
        placement, timing = state
        off_path = [c for c in range(placement.num_cells) if c not in timing.critical_path]
        assert timing.deltas_for_swaps(off_path[:1], off_path[1:2])[0] == 0.0

    def test_delta_nonzero_when_path_touched(self, state):
        placement, timing = state
        path = timing.critical_path
        off_path = [c for c in range(placement.num_cells) if c not in path]
        # moving a path cell far away usually changes the path delay estimate
        others = off_path[:10]
        deltas = timing.deltas_for_swaps([path[1]] * len(others), others)
        assert np.any(deltas != 0)

    def test_refresh_interval_keeps_surrogate_bounded(self, state):
        placement, timing = state
        rng = np.random.default_rng(5)
        for _ in range(20):
            a, b = (int(x) for x in rng.integers(0, placement.num_cells, 2))
            placement.swap_cells(a, b)
            timing.commit_swap(a, b)
        # after a refresh the surrogate agrees with the exact analysis
        timing.refresh()
        assert timing.critical_delay == pytest.approx(timing.exact_delay())

    def test_invalid_refresh_interval_rejected(self):
        netlist = load_benchmark("tiny16")
        layout = Layout(netlist)
        placement = random_placement(layout, seed=0)
        with pytest.raises(CostModelError):
            TimingState(placement, TimingAnalyzer(netlist), refresh_interval=0)


def _arrays_of(value):
    """Every ndarray inside ``value``, descending into tuples."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays_of(item)


@pytest.fixture()
def build_counter(monkeypatch):
    """The netlists `_build_graph` is called for, in call order."""
    built = []
    build = timing._build_graph

    def counting_build(netlist):
        built.append(netlist)
        return build(netlist)

    monkeypatch.setattr(timing, "_build_graph", counting_build)
    return built


class TestSharedGraph:
    def test_evaluators_of_one_problem_build_the_graph_once(self, build_counter):
        problem = PlacementProblem.from_netlist(load_benchmark("mini64", use_cache=False))
        solution = problem.random_solution(seed=1)
        first = problem.make_evaluator(solution)
        second = problem.make_evaluator(solution)
        # from_netlist's reference evaluator built it; the others reuse it
        assert build_counter == [problem.netlist]
        assert first._timing.analyzer.graph is second._timing.analyzer.graph
        assert first._timing.analyzer is not second._timing.analyzer

    def test_threads_build_one_graph_and_keep_their_own_scratch(self, build_counter):
        """More analyzing threads than cores, on one fresh big2k netlist.

        They race to build the graph (the cache lock lets one build it),
        then analyze different placements, switching threads inside
        ``analyze``; every result must equal the serial one.
        """
        netlist = load_benchmark("big2k", use_cache=False)
        layout = Layout(netlist)
        num_threads, rounds = 4, 20
        placements = [random_placement(layout, seed=11 + i) for i in range(num_threads)]
        analyzers = [None] * num_threads
        results = [[] for _ in range(num_threads)]
        barrier = threading.Barrier(num_threads, timeout=30)

        def work(index):
            barrier.wait()
            analyzers[index] = analyzer = TimingAnalyzer(netlist)
            for _ in range(rounds):
                results[index].append(analyzer.analyze(placements[index]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(num_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert build_counter == [netlist]
        assert all(analyzer.graph is analyzers[0].graph for analyzer in analyzers)
        assert not analyzers[0]._use_scalar_propagation  # the scratch-backed path
        for index, placement in enumerate(placements):
            expected = TimingAnalyzer(netlist).analyze(placement)
            # a thread that raised left fewer results behind
            assert len(results[index]) == rounds
            for result in results[index]:
                assert result.critical_delay == expected.critical_delay
                assert result.critical_path == expected.critical_path
                assert np.array_equal(result.arrival, expected.arrival)

    def test_every_graph_array_is_read_only(self):
        graph = timing.timing_graph(load_benchmark("c532"))
        arrays = [
            array
            for field in dataclasses.fields(graph)
            for array in _arrays_of(getattr(graph, field.name))
        ]
        # masks, delays, edge lists, endpoint CSR and four arrays per level
        assert len(arrays) >= 8 + 4 * len(graph.level_schedule)
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    def test_building_evaluators_leaves_the_problem_pickle_unchanged(self):
        problem = PlacementProblem.from_netlist(load_benchmark("mini64", use_cache=False))
        before = pickle.dumps(problem)
        solution = problem.random_solution(seed=2)
        evaluators = [problem.make_evaluator(solution) for _ in range(2)]
        evaluators[0].exact_cost()  # runs an STA on the shared graph
        assert pickle.dumps(problem) == before

    def test_graph_dies_with_its_netlist(self):
        netlist = load_benchmark("mini64", use_cache=False)
        analyzer = TimingAnalyzer(netlist)
        analyzer.analyze(random_placement(Layout(netlist), seed=0))
        graph = weakref.ref(analyzer.graph)
        del netlist, analyzer
        gc.collect()
        assert graph() is None
