"""Synthetic circuit generator.

The paper evaluates on four ISCAS-89 standard-cell benchmarks: ``highway``
(56 cells), ``c532`` (395 cells), ``c1355`` (1451 cells) and ``c3540``
(2243 cells).  The original gate-level netlist files are not available in this
offline environment, so we generate *structurally comparable* circuits: the
same cell counts, realistic fan-in/fan-out distributions, a layered
(DAG-friendly) topology with mostly-local connectivity plus a tail of longer
connections — the properties that drive placement behaviour (wirelength
distribution, critical-path length, neighbourhood structure).

The generator is fully deterministic given its :class:`CircuitSpec` (which
includes a seed), so every experiment in the benchmark harness sees exactly
the same circuit.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List

from .._rng import make_rng
from ..errors import NetlistError
from .cell import CellKind
from .netlist import Netlist, NetlistBuilder

__all__ = ["CircuitSpec", "build_chain_netlist", "generate_circuit"]


def build_chain_netlist(num_gates: int = 6, name: str = "chain") -> Netlist:
    """A simple PI -> g0 -> g1 -> ... -> PO chain circuit.

    Handy for tests and examples because the critical path and wirelength are
    easy to reason about by hand: every gate has delay 1 and a slightly
    increasing width, so a chain of ``n`` gates has a zero-wire-delay critical
    path of exactly ``n``.
    """
    builder = NetlistBuilder(name)
    builder.add_cell("pi0", kind=CellKind.PRIMARY_INPUT, delay=0.0, width=1.0)
    previous = "pi0"
    for index in range(num_gates):
        gate = f"g{index}"
        builder.add_cell(gate, delay=1.0, width=1.0 + 0.1 * index)
        builder.add_net(f"n{index}", driver=previous, sinks=[gate])
        previous = gate
    builder.add_cell("po0", kind=CellKind.PRIMARY_OUTPUT, delay=0.0, width=1.0)
    builder.add_net("n_out", driver=previous, sinks=["po0"])
    return builder.build()


@dataclass(frozen=True, slots=True)
class CircuitSpec:
    """Parameters of a synthetic circuit.

    Attributes
    ----------
    name:
        Circuit name; also used to derive the RNG stream.
    num_cells:
        Total number of cells including primary I/O pads.
    seed:
        Root seed of the generator.
    input_fraction / output_fraction:
        Fraction of cells that are primary inputs / outputs.
    sequential_fraction:
        Fraction of internal cells that are flip-flops.
    avg_fanin:
        Average number of distinct driving cells per combinational gate.
    locality:
        In ``[0, 1]``; probability that a connection is drawn from the nearby
        preceding layer rather than uniformly from all preceding cells.
        Higher values produce more local (placeable) structure.
    min_cell_width / max_cell_width:
        Uniform range for cell widths.
    min_cell_delay / max_cell_delay:
        Uniform range for intrinsic gate delays.
    """

    name: str
    num_cells: int
    seed: int = 2003
    input_fraction: float = 0.08
    output_fraction: float = 0.08
    sequential_fraction: float = 0.10
    avg_fanin: float = 2.2
    locality: float = 0.75
    min_cell_width: float = 1.0
    max_cell_width: float = 4.0
    min_cell_delay: float = 0.5
    max_cell_delay: float = 2.0

    def __post_init__(self) -> None:
        if self.num_cells < 8:
            raise NetlistError(f"circuit {self.name!r}: need at least 8 cells, got {self.num_cells}")
        if not (0.0 < self.input_fraction < 0.5):
            raise NetlistError(f"circuit {self.name!r}: input_fraction out of range")
        if not (0.0 < self.output_fraction < 0.5):
            raise NetlistError(f"circuit {self.name!r}: output_fraction out of range")
        if not (0.0 <= self.sequential_fraction < 1.0):
            raise NetlistError(f"circuit {self.name!r}: sequential_fraction out of range")
        if self.avg_fanin < 1.0:
            raise NetlistError(f"circuit {self.name!r}: avg_fanin must be >= 1")
        if not (0.0 <= self.locality <= 1.0):
            raise NetlistError(f"circuit {self.name!r}: locality must be in [0, 1]")
        if self.min_cell_width <= 0 or self.max_cell_width < self.min_cell_width:
            raise NetlistError(f"circuit {self.name!r}: invalid cell width range")
        if self.min_cell_delay < 0 or self.max_cell_delay < self.min_cell_delay:
            raise NetlistError(f"circuit {self.name!r}: invalid cell delay range")


def generate_circuit(spec: CircuitSpec) -> Netlist:
    """Generate a deterministic synthetic netlist matching ``spec``.

    The construction proceeds in three steps:

    1. decide the population: primary inputs, internal gates (a fraction of
       which are sequential), primary outputs;
    2. order the internal gates into an implicit topological order and wire
       each gate's fan-in from earlier cells, favouring nearby predecessors
       according to ``spec.locality``;
    3. connect each primary output to a late internal gate and make sure
       every cell drives or is driven by at least one net (no floating cells,
       which would make placement moves meaningless for them).
    """
    rng = make_rng(spec.seed, "circuit", spec.name, spec.num_cells)
    n = spec.num_cells
    n_in = max(2, int(round(n * spec.input_fraction)))
    n_out = max(2, int(round(n * spec.output_fraction)))
    n_internal = n - n_in - n_out
    if n_internal < 2:
        raise NetlistError(
            f"circuit {spec.name!r}: {n} cells leave only {n_internal} internal cells; "
            "reduce input/output fractions"
        )

    builder = NetlistBuilder(spec.name)

    # --- cells -----------------------------------------------------------
    widths = rng.uniform(spec.min_cell_width, spec.max_cell_width, size=n)
    delays = rng.uniform(spec.min_cell_delay, spec.max_cell_delay, size=n)

    input_indices: List[int] = []
    for i in range(n_in):
        idx = builder.add_cell(
            f"{spec.name}_pi{i}", width=float(widths[builder.num_cells]), delay=0.0,
            kind=CellKind.PRIMARY_INPUT,
        )
        input_indices.append(idx)

    internal_indices: List[int] = []
    seq_mask = rng.random(n_internal) < spec.sequential_fraction
    for i in range(n_internal):
        kind = CellKind.SEQUENTIAL if seq_mask[i] else CellKind.COMBINATIONAL
        idx = builder.add_cell(
            f"{spec.name}_g{i}", width=float(widths[builder.num_cells]),
            delay=float(delays[builder.num_cells]), kind=kind,
        )
        internal_indices.append(idx)

    output_indices: List[int] = []
    for i in range(n_out):
        idx = builder.add_cell(
            f"{spec.name}_po{i}", width=float(widths[builder.num_cells]), delay=0.0,
            kind=CellKind.PRIMARY_OUTPUT,
        )
        output_indices.append(idx)

    # --- nets: one net per driving cell ----------------------------------
    # Topological position of a cell = its position in `sources` below.
    sources: List[int] = list(input_indices) + list(internal_indices)
    fanin_targets: dict[int, List[int]] = {idx: [] for idx in internal_indices + output_indices}

    # wire internal gates
    for pos, gate in enumerate(internal_indices):
        # candidate drivers are all cells earlier in topological order
        horizon = n_in + pos  # number of cells strictly before this gate in `sources`
        k = max(1, int(round(rng.normal(spec.avg_fanin, 0.8))))
        k = min(k, horizon)
        chosen: set[int] = set()
        for _ in range(k):
            if rng.random() < spec.locality and horizon > 4:
                # pick from the nearby window of the last ~10% (at least 8) predecessors
                window = max(8, horizon // 10)
                lo = max(0, horizon - window)
                cand = int(rng.integers(lo, horizon))
            else:
                cand = int(rng.integers(0, horizon))
            chosen.add(sources[cand])
        fanin_targets[gate].extend(sorted(chosen))

    # wire primary outputs to late internal gates
    late_start = max(0, len(internal_indices) - max(4, len(internal_indices) // 4))
    for out in output_indices:
        pick = internal_indices[int(rng.integers(late_start, len(internal_indices)))]
        fanin_targets[out].append(pick)

    # invert: driver -> sinks
    sinks_of: dict[int, List[int]] = {}
    for sink, drivers in fanin_targets.items():
        for driver in drivers:
            sinks_of.setdefault(driver, []).append(sink)

    # ensure every input drives something and every internal gate drives something
    gate_cursor = 0
    for driver in input_indices + internal_indices:
        if driver not in sinks_of or not sinks_of[driver]:
            # attach to a pseudo-random later consumer (an output pad or later
            # gate); internal_indices is sorted, so the later gates are a suffix
            first_later = bisect_right(internal_indices, driver)
            num_later = len(internal_indices) - first_later
            if num_later:
                target = internal_indices[first_later + gate_cursor % num_later]
            else:
                target = output_indices[gate_cursor % len(output_indices)]
            gate_cursor += 1
            if target == driver:
                target = output_indices[gate_cursor % len(output_indices)]
            sinks_of.setdefault(driver, []).append(target)

    # --- create nets ------------------------------------------------------
    cell_names = {idx: cell.name for idx, cell in enumerate(builder._cells)}  # noqa: SLF001
    net_count = 0
    for driver in sorted(sinks_of):
        sinks = sorted(set(sinks_of[driver]) - {driver})
        if not sinks:
            continue
        weight = 1.0 + float(rng.random()) * 0.5
        builder.add_net(
            f"{spec.name}_n{net_count}",
            driver=cell_names[driver],
            sinks=[cell_names[s] for s in sinks],
            weight=weight,
        )
        net_count += 1

    netlist = builder.build()
    if netlist.num_nets == 0:
        raise NetlistError(f"circuit {spec.name!r}: generator produced no nets")
    return netlist
