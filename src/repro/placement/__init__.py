"""VLSI standard-cell placement substrate.

This subpackage implements everything the parallel tabu search needs from the
placement problem: netlist representation, benchmark circuits, row-based
layout geometry, placement solutions with O(1) swap moves, the three crisp
objectives (wirelength, critical-path delay, area) with incremental
evaluation, and the fuzzy goal-based scalar cost.
"""

from .area import AreaState, full_area, row_widths
from .cell import Cell, CellKind, Net
from .cost import CostEvaluator, CostModelParams, EvaluatorState, ObjectiveVector, make_evaluator
from .generator import CircuitSpec, build_chain_netlist, generate_circuit
from .io import (
    netlist_from_string,
    netlist_to_string,
    read_netlist,
    read_placement,
    write_netlist,
    write_placement,
)
from .iscas import (
    BENCHMARK_SPECS,
    PAPER_CIRCUITS,
    benchmark_names,
    load_benchmark,
    paper_benchmarks,
)
from .layout import Layout, LayoutSpec
from .netlist import Netlist, NetlistBuilder, NetlistStats
from .solution import Placement, SwapBatch, random_placement
from .timing import TimingAnalyzer, TimingModel, TimingResult, TimingState
from .wirelength import WirelengthState, full_hpwl, net_bboxes, net_hpwl

__all__ = [
    "Cell",
    "CellKind",
    "Net",
    "Netlist",
    "NetlistBuilder",
    "NetlistStats",
    "CircuitSpec",
    "build_chain_netlist",
    "generate_circuit",
    "netlist_from_string",
    "netlist_to_string",
    "read_netlist",
    "read_placement",
    "write_netlist",
    "write_placement",
    "BENCHMARK_SPECS",
    "PAPER_CIRCUITS",
    "benchmark_names",
    "load_benchmark",
    "paper_benchmarks",
    "Layout",
    "LayoutSpec",
    "Placement",
    "SwapBatch",
    "random_placement",
    "WirelengthState",
    "full_hpwl",
    "net_bboxes",
    "net_hpwl",
    "TimingAnalyzer",
    "TimingModel",
    "TimingResult",
    "TimingState",
    "AreaState",
    "full_area",
    "row_widths",
    "CostEvaluator",
    "CostModelParams",
    "EvaluatorState",
    "ObjectiveVector",
    "make_evaluator",
]
