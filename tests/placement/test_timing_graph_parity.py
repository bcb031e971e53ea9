"""Parity of the array-derived timing graph with the frozen per-cell builder.

``timing._build_graph`` derives every :class:`~repro.placement.timing.TimingGraph`
field from the netlist's kind codes and fan-in CSR with NumPy.  The frozen
builder it replaced (``oracles.timing_graph.reference_graph``) walks the
netlist's object view one cell at a time.  Every field must come out equal —
arrays with the same dtype and values, tuples element for element — on every
named circuit and on generated netlists that mix all four cell kinds,
duplicate fan-in and edges into start points.  A combinational cycle must
raise the same :class:`~repro.errors.CostModelError` from both.
"""

from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.timing_graph import reference_graph
from repro.errors import CostModelError
from repro.placement import CellKind, NetlistBuilder
from repro.placement import timing
from repro.placement.iscas import benchmark_names, load_benchmark
from repro.placement.netlist import Netlist


def _same(value, expected) -> bool:
    if isinstance(value, np.ndarray) or isinstance(expected, np.ndarray):
        return (
            isinstance(value, np.ndarray)
            and isinstance(expected, np.ndarray)
            and value.dtype == expected.dtype
            and np.array_equal(value, expected)
        )
    if isinstance(value, tuple) or isinstance(expected, tuple):
        return (
            isinstance(value, tuple)
            and isinstance(expected, tuple)
            and len(value) == len(expected)
            and all(map(_same, value, expected))
        )
    return type(value) is type(expected) and value == expected


def assert_same_graph(graph: timing.TimingGraph, reference) -> None:
    names = [field.name for field in dataclasses.fields(graph)]
    reference_names = {field.name for field in dataclasses.fields(reference)}
    # the reference also carries its Kahn order, which the graph dropped
    assert set(names) == reference_names - {"topo_order"}
    for name in names:
        assert _same(getattr(graph, name), getattr(reference, name)), name


def _restored(netlist: Netlist) -> Netlist:
    """The netlist rebuilt around its arrays, as a worker restores it."""
    return Netlist.from_arrays(*netlist.export_arrays())


@pytest.mark.parametrize("name", benchmark_names())
def test_named_circuit_graph_matches_the_frozen_builder(name):
    netlist = load_benchmark(name, use_cache=False)
    graph = timing.timing_graph(_restored(netlist))
    assert_same_graph(graph, reference_graph(netlist))


@st.composite
def netlists(draw, acyclic: bool) -> Netlist:
    """A netlist with one cell of each kind plus up to 16 more.

    With ``acyclic``, an edge into a propagating cell (combinational or a
    primary output) goes up a drawn ranking of the cells, so the
    combinational graph has no cycle; edges into start points (primary
    inputs, flip-flops) go anywhere.  Nets may repeat a driver→sink edge,
    which gives a cell the same driver twice in its fan-in.
    """
    kinds = list(CellKind) + draw(st.lists(st.sampled_from(list(CellKind)), max_size=16))
    n = len(kinds)
    rank = draw(st.permutations(range(n)))
    builder = NetlistBuilder("generated")
    for index, kind in enumerate(kinds):
        delay = draw(st.floats(0.0, 3.0, allow_nan=False, allow_infinity=False))
        builder.add_cell(f"c{index}", kind=kind, delay=delay)
    for net in range(draw(st.integers(0, 2 * n))):
        driver = draw(st.integers(0, n - 1))
        allowed = [
            cell for cell in range(n)
            if cell != driver
            and (not acyclic or kinds[cell].is_timing_start or rank[cell] > rank[driver])
        ]
        if not allowed:
            continue
        sinks = draw(st.lists(st.sampled_from(allowed), min_size=1, max_size=4, unique=True))
        builder.add_net(f"n{net}", driver=f"c{driver}", sinks=[f"c{s}" for s in sinks])
    return builder.build()


@settings(max_examples=80, deadline=None)
@given(netlists(acyclic=True))
def test_generated_acyclic_graph_matches_the_frozen_builder(netlist):
    assert_same_graph(timing._build_graph(_restored(netlist)), reference_graph(netlist))


@settings(max_examples=80, deadline=None)
@given(netlists(acyclic=False))
def test_generated_graph_or_cycle_error_matches_the_frozen_builder(netlist):
    try:
        expected = reference_graph(netlist)
    except CostModelError as error:
        with pytest.raises(CostModelError, match=re.escape(str(error))):
            timing._build_graph(_restored(netlist))
    else:
        assert_same_graph(timing._build_graph(_restored(netlist)), expected)


def test_combinational_cycle_raises_todays_message():
    builder = NetlistBuilder("loop")
    builder.add_cell("pi", kind=CellKind.PRIMARY_INPUT, delay=0.0)
    builder.add_cell("a")
    builder.add_cell("b")
    builder.add_cell("ff", kind=CellKind.SEQUENTIAL)
    builder.add_cell("po", kind=CellKind.PRIMARY_OUTPUT, delay=0.0)
    builder.add_net("n0", driver="pi", sinks=["a"])
    builder.add_net("n1", driver="a", sinks=["b", "po"])
    builder.add_net("n2", driver="b", sinks=["a", "ff"])
    builder.add_net("n3", driver="ff", sinks=["pi"])
    message = (
        "netlist 'loop': combinational cycle detected; "
        "static timing analysis requires an acyclic combinational graph"
    )
    with pytest.raises(CostModelError, match=f"^{re.escape(message)}$"):
        timing._build_graph(builder.build())


def test_a_loop_through_a_flip_flop_is_not_a_cycle():
    builder = NetlistBuilder("ring")
    builder.add_cell("ff", kind=CellKind.SEQUENTIAL)
    builder.add_cell("a")
    builder.add_cell("b")
    builder.add_net("n0", driver="ff", sinks=["a"])
    builder.add_net("n1", driver="a", sinks=["b"])
    builder.add_net("n2", driver="b", sinks=["ff"])
    netlist = builder.build()
    graph = timing._build_graph(netlist)
    assert_same_graph(graph, reference_graph(netlist))
    assert [cells.tolist() for cells, *_rest in graph.level_schedule] == [[1], [2]]
