"""Frozen reference timing-graph builder: the parity oracle of ``_build_graph``.

:func:`reference_graph` is the per-cell Python builder that
``repro.placement.timing._build_graph`` replaced with array code, kept as it
shipped: it reads the netlist's object view (``cells``, and the fan-in it
reads off ``nets`` net by net, as the netlist's fan-in tuples were built
before the fan-in CSR), sorts the propagating edges topologically with
Kahn's algorithm and groups cells into levels one cell at a time.  The
parity suite compares every field of the shipped graph with its result;
:func:`reference_topo_order` is also the cell order of the scalar STA
oracle (``oracles.kernels.sta_reference``), since the shipped graph carries
no topological order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import CostModelError
from repro.placement.cell import CellKind
from repro.placement.netlist import Netlist

__all__ = ["ReferenceGraph", "reference_fanin", "reference_graph", "reference_topo_order"]


@dataclass(frozen=True, eq=False)
class ReferenceGraph:
    """The fields of ``TimingGraph``, plus the Kahn order they came from."""

    is_start: np.ndarray
    is_end: np.ndarray
    is_seq: np.ndarray
    prop_fanin: Tuple[Tuple[int, ...], ...]
    end_fanin: Tuple[Tuple[int, ...], ...]
    topo_order: Tuple[int, ...]
    delays: np.ndarray
    delays_list: Tuple[float, ...]
    level_schedule: Tuple[tuple, ...]
    edge_src: np.ndarray
    edge_dst: np.ndarray
    scalar_schedule: Tuple[Tuple[int, Tuple[int, ...]], ...]
    end_flat: np.ndarray
    ends_rep: np.ndarray


def reference_topo_order(prop_fanin: Sequence[Tuple[int, ...]]) -> List[int]:
    """Kahn topological order over the propagating edges, or fewer than
    ``len(prop_fanin)`` cells when they contain a cycle."""
    n = len(prop_fanin)
    indegree = np.array([len(f) for f in prop_fanin], dtype=np.int64)
    consumers: List[List[int]] = [[] for _ in range(n)]
    for c in range(n):
        for d in prop_fanin[c]:
            consumers[d].append(c)
    queue = deque(int(c) for c in np.flatnonzero(indegree == 0))
    order: List[int] = []
    remaining = indegree.copy()
    while queue:
        c = queue.popleft()
        order.append(c)
        for consumer in consumers[c]:
            remaining[consumer] -= 1
            if remaining[consumer] == 0:
                queue.append(consumer)
    return order


def reference_fanin(netlist: Netlist) -> Tuple[Tuple[int, ...], ...]:
    """Every cell's drivers, read off the nets in net order (the per-net
    loop the fan-in CSR replaced)."""
    fanin: List[List[int]] = [[] for _ in range(netlist.num_cells)]
    for net in netlist.nets:
        for sink in net.sinks:
            fanin[sink].append(net.driver)
    return tuple(tuple(drivers) for drivers in fanin)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def reference_graph(netlist: Netlist) -> ReferenceGraph:
    """Derive the timing graph of ``netlist`` one cell at a time."""
    n = netlist.num_cells
    drivers = reference_fanin(netlist)
    kinds = [cell.kind for cell in netlist.cells]
    is_start = np.array([k.is_timing_start for k in kinds], dtype=bool)
    is_end = np.array([k.is_timing_end for k in kinds], dtype=bool)
    is_seq = np.array([k is CellKind.SEQUENTIAL for k in kinds], dtype=bool)

    prop_fanin = tuple(() if is_start[c] else drivers[c] for c in range(n))
    end_fanin = tuple(drivers[c] if is_end[c] else () for c in range(n))

    order = reference_topo_order(prop_fanin)
    if len(order) != n:
        raise CostModelError(
            f"netlist {netlist.name!r}: combinational cycle detected; "
            "static timing analysis requires an acyclic combinational graph"
        )
    delays = netlist.cell_delays

    level = np.zeros(n, dtype=np.int64)
    for c in order:
        fanin = prop_fanin[c]
        if fanin:
            level[c] = 1 + max(int(level[d]) for d in fanin)
    schedule = []
    max_level = int(level.max()) if n else 0
    edge_cursor = 0
    all_flat: List[np.ndarray] = []
    all_rep: List[np.ndarray] = []
    for lvl in range(1, max_level + 1):
        cells = np.flatnonzero(level == lvl)
        counts = np.array([len(prop_fanin[c]) for c in cells], dtype=np.int64)
        flat = np.concatenate(
            [np.asarray(prop_fanin[c], dtype=np.int64) for c in cells]
        ) if cells.size else np.zeros(0, dtype=np.int64)
        starts = np.zeros(cells.size, dtype=np.int64)
        if cells.size:
            np.cumsum(counts[:-1], out=starts[1:])
        edge_slice = slice(edge_cursor, edge_cursor + flat.size)
        edge_cursor += flat.size
        all_flat.append(flat)
        all_rep.append(np.repeat(cells, counts))
        schedule.append((
            _read_only(cells), _read_only(flat), _read_only(starts),
            _read_only(delays[cells]), edge_slice,
        ))
    edge_src = np.concatenate(all_flat) if all_flat else np.zeros(0, dtype=np.int64)
    edge_dst = np.concatenate(all_rep) if all_rep else np.zeros(0, dtype=np.int64)
    scalar_schedule = tuple(
        (int(c), prop_fanin[c])
        for cells, _flat, _starts, _delays, _sl in schedule
        for c in cells
    )
    end_cells = [c for c in np.flatnonzero(is_end) if end_fanin[c]]
    if end_cells:
        end_counts = np.array([len(end_fanin[c]) for c in end_cells], dtype=np.int64)
        end_flat = np.concatenate(
            [np.asarray(end_fanin[c], dtype=np.int64) for c in end_cells]
        )
    else:
        end_counts = np.zeros(0, dtype=np.int64)
        end_flat = np.zeros(0, dtype=np.int64)
    ends_rep = np.repeat(np.asarray(end_cells, dtype=np.int64), end_counts)
    return ReferenceGraph(
        is_start=_read_only(is_start),
        is_end=_read_only(is_end),
        is_seq=_read_only(is_seq),
        prop_fanin=prop_fanin,
        end_fanin=end_fanin,
        topo_order=tuple(order),
        delays=delays,
        delays_list=tuple(float(d) for d in delays),
        level_schedule=tuple(schedule),
        edge_src=_read_only(edge_src),
        edge_dst=_read_only(edge_dst),
        scalar_schedule=scalar_schedule,
        end_flat=_read_only(end_flat),
        ends_rep=_read_only(ends_rep),
    )
