"""Timing objective: critical-path delay via static timing analysis (STA).

The paper's placement cost includes "timing performance / circuit speed",
which is a function of cell delays and interconnection delays.  We model it in
the usual way:

* every cell has an intrinsic delay (0 for I/O pads, a clock-to-Q delay for
  flip-flops);
* every driver→sink connection has an interconnection delay proportional to
  the Manhattan distance between the two cells under the current placement;
* the *critical-path delay* is the longest data-arrival time at a timing
  endpoint (primary output or flip-flop data input), computed by propagating
  arrival times in topological order.

A full STA is O(cells + connections) and is exact, but too expensive to run
for every trial swap in the tabu-search inner loop.  :class:`TimingState`
therefore caches the most recent critical path and scores candidate swaps by
re-evaluating the cached path with the hypothetical positions — a standard
path-based surrogate: exact for moves touching the cached path, optimistic
otherwise.  The exact analysis is re-run when moves are committed (with a
configurable refresh interval) so the surrogate never drifts far.

Everything the analysis derives from the netlist alone (kind masks, fan-in,
level schedule, flat edge lists) is a :class:`TimingGraph`, built from the
netlist's arrays once per netlist object per process by :func:`timing_graph`
and shared by every :class:`TimingAnalyzer` of that netlist.  Every run's
master, TSW and CLW build an evaluator, and at 10k cells the graph was most
of that build.  Each analyzer keeps its own scratch buffers, because
evaluators sharing one problem may analyze at the same time on different
threads.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..errors import CostModelError
from .cell import CellKind
from .netlist import Netlist, csr_group, csr_lists, csr_rows
from .solution import Placement

__all__ = [
    "TimingModel", "TimingResult", "TimingGraph", "timing_graph", "TimingAnalyzer",
    "TimingState",
]


@dataclass(frozen=True, slots=True)
class TimingModel:
    """Parameters of the interconnect delay model.

    Attributes
    ----------
    wire_delay_per_unit:
        Delay contributed per unit of Manhattan distance between a driver and
        a sink.
    """

    wire_delay_per_unit: float = 0.05

    def __post_init__(self) -> None:
        if self.wire_delay_per_unit < 0:
            raise CostModelError(
                f"wire_delay_per_unit must be non-negative, got {self.wire_delay_per_unit}"
            )


@dataclass(frozen=True, slots=True)
class TimingResult:
    """Outcome of one exact static timing analysis."""

    critical_delay: float
    #: Arrival time at the output of every cell.
    arrival: np.ndarray
    #: Cells along the critical path, from start point to end point.
    critical_path: Tuple[int, ...]

    @property
    def path_length(self) -> int:
        """Number of cells on the critical path."""
        return len(self.critical_path)


@dataclass(frozen=True, eq=False)
class TimingGraph:
    """Everything static timing analysis derives from the netlist alone.

    Built by :func:`timing_graph` once per netlist object per process and
    shared by every :class:`TimingAnalyzer` of that netlist, so it is
    immutable: sequences are tuples and every array is read-only.  It reads
    neither a placement nor a :class:`TimingModel`, and it holds no
    reference to its netlist, so the cache entry dies with the netlist.
    """

    #: Kind masks: timing start points, timing endpoints, flip-flops.
    is_start: np.ndarray
    is_end: np.ndarray
    is_seq: np.ndarray
    #: Propagating fan-in of every cell (empty for start points).
    prop_fanin: Tuple[Tuple[int, ...], ...]
    #: Endpoint fan-in of every cell (empty unless it is an endpoint).
    end_fanin: Tuple[Tuple[int, ...], ...]
    #: Intrinsic cell delays, as an array and as Python floats.
    delays: np.ndarray
    delays_list: Tuple[float, ...]
    #: One ``(cells, flat fan-in, segment starts, cell delays, edge slice)``
    #: entry per topological level above 0.
    level_schedule: Tuple[tuple, ...]
    #: Every propagating edge in level order: driver and sink.
    edge_src: np.ndarray
    edge_dst: np.ndarray
    #: ``(cell, fan-in)`` in edge order, for the scalar propagation loop.
    scalar_schedule: Tuple[Tuple[int, Tuple[int, ...]], ...]
    #: Endpoint CSR: every endpoint fan-in driver and, aligned, its endpoint.
    end_flat: np.ndarray
    ends_rep: np.ndarray


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _build_graph(netlist: Netlist) -> TimingGraph:
    """Derive the :class:`TimingGraph` of ``netlist`` (uncached).

    Reads only the netlist's arrays (kind codes and the fan-in CSR), so a
    netlist restored around shared memory never builds its object view;
    the per-cell work is NumPy except for the tuple fields.
    """
    n = netlist.num_cells
    kinds = netlist.cell_kinds

    def kind_mask(test) -> np.ndarray:
        return np.isin(kinds, [code for code, kind in enumerate(Netlist.KIND_ORDER) if test(kind)])

    is_start = kind_mask(lambda kind: kind.is_timing_start)
    is_end = kind_mask(lambda kind: kind.is_timing_end)
    is_seq = kind_mask(lambda kind: kind is CellKind.SEQUENTIAL)
    fanin_ptr = netlist.fanin_ptr
    fanin_flat = netlist.fanin_flat
    fanin_counts = np.diff(fanin_ptr)

    # Propagating fan-in: for every cell, the drivers whose arrival feeds
    # its own arrival.  Sequential cells do not propagate their fan-in
    # (paths end at their D input); their own arrival is just clk-to-Q.
    fanin = tuple(map(tuple, csr_lists(fanin_flat, fanin_ptr)))
    prop_fanin = tuple(() if start else f for start, f in zip(is_start.tolist(), fanin))
    # Endpoint fan-in: data inputs of sequential cells and primary outputs.
    # (For primary outputs this is the same as the propagating fan-in.)
    end_fanin = tuple(f if end else () for end, f in zip(is_end.tolist(), fanin))

    # Topological *levels* for the vectorised STA: all cells of one level
    # depend only on strictly earlier levels, so a whole level's arrival
    # times are one segmented gather/reduce instead of a Python loop over
    # cells.  Kahn's algorithm one frontier at a time: a cell leaves in the
    # round after its last driver, so its round is its longest-path depth.
    owner = np.repeat(np.arange(n, dtype=np.int64), fanin_counts)
    propagates = ~is_start[owner]
    consumer_of = owner[propagates]
    driver_of = fanin_flat[propagates]
    consumer_ptr, consumers = csr_group(driver_of, consumer_of, n)
    remaining = np.bincount(consumer_of, minlength=n)
    level = np.zeros(n, dtype=np.int64)
    frontier = np.flatnonzero(remaining == 0)
    released = frontier.size
    depth = 0
    while frontier.size:
        targets, _counts = csr_rows(consumers, consumer_ptr, frontier)
        remaining -= np.bincount(targets, minlength=n)
        frontier = np.unique(targets[remaining[targets] == 0])
        depth += 1
        level[frontier] = depth
        released += frontier.size
    if released != n:
        raise CostModelError(
            f"netlist {netlist.name!r}: combinational cycle detected; "
            "static timing analysis requires an acyclic combinational graph"
        )
    delays = netlist.cell_delays

    # One flat edge list over all levels, cells by level and by index within
    # a level (one stable sort): the geometric edge delays are
    # arrival-independent, so one vectorised pass prices every edge up
    # front and the sequential per-level work shrinks to a gather, an add
    # and a segmented max.
    max_level = int(level.max()) if n else 0
    level_ptr, by_level = csr_group(level, np.arange(n, dtype=np.int64), max_level + 1)
    first = int(level_ptr[1])
    scheduled = by_level[first:]  # the cells above level 0 propagate
    edge_src, edge_counts = csr_rows(fanin_flat, fanin_ptr, scheduled)
    edge_dst = np.repeat(scheduled, edge_counts)
    edge_ptr = np.zeros(scheduled.size + 1, dtype=np.int64)
    np.cumsum(edge_counts, out=edge_ptr[1:])
    schedule = []
    for lvl in range(1, max_level + 1):
        lo, hi = int(level_ptr[lvl]) - first, int(level_ptr[lvl + 1]) - first
        edge_lo, edge_hi = int(edge_ptr[lo]), int(edge_ptr[hi])
        cells = scheduled[lo:hi]
        schedule.append((
            _read_only(cells), _read_only(edge_src[edge_lo:edge_hi]),
            _read_only(edge_ptr[lo:hi] - edge_lo), _read_only(delays[cells]),
            slice(edge_lo, edge_hi),
        ))
    # Scalar propagation schedule, aligned with the flat edge order: for
    # the paper-sized circuits a tight Python loop over *pre-vectorised*
    # edge delays beats per-level NumPy dispatch (tens of levels with a
    # handful of cells each); big flat circuits flip the other way.
    scalar_schedule = tuple((c, prop_fanin[c]) for c in scheduled.tolist())
    # Endpoint CSR: data arrivals at POs / flip-flop D inputs.  Endpoints
    # are visited in index order and their fan-in in netlist order —
    # matching the reference loop so that first-maximum tie-breaking is
    # identical.
    end_cells = np.flatnonzero(is_end & (fanin_counts > 0))
    end_flat, end_counts = csr_rows(fanin_flat, fanin_ptr, end_cells)
    ends_rep = np.repeat(end_cells, end_counts)
    return TimingGraph(
        is_start=_read_only(is_start),
        is_end=_read_only(is_end),
        is_seq=_read_only(is_seq),
        prop_fanin=prop_fanin,
        end_fanin=end_fanin,
        delays=delays,
        delays_list=tuple(delays.tolist()),
        level_schedule=tuple(schedule),
        edge_src=_read_only(edge_src),
        edge_dst=_read_only(edge_dst),
        scalar_schedule=scalar_schedule,
        end_flat=_read_only(end_flat),
        ends_rep=_read_only(ends_rep),
    )


#: Netlist object → its graph.  Weak keys: an entry dies with its netlist
#: (a warm pool that switches problems drops the old graph), and nothing is
#: stored on the netlist, so no graph rides in a pickle of it.
_GRAPHS: "weakref.WeakKeyDictionary[Netlist, TimingGraph]" = weakref.WeakKeyDictionary()
_GRAPHS_LOCK = threading.Lock()


def timing_graph(netlist: Netlist) -> TimingGraph:
    """The shared :class:`TimingGraph` of ``netlist``, built on first use.

    Memoised per netlist object for the life of the process: every run's
    master, TSW and CLW build an evaluator, and on the threads backend and
    the simulator they all share one problem object, as a warm worker
    shares its problem across runs.  The build runs under the cache lock,
    so threads asking at once build it once.
    """
    with _GRAPHS_LOCK:
        graph = _GRAPHS.get(netlist)
        if graph is None:
            graph = _GRAPHS[netlist] = _build_graph(netlist)
        return graph


class TimingAnalyzer:
    """Exact static timing analysis for a fixed netlist.

    The netlist connectivity never changes during placement, so the
    endpoint set, fan-in structure and level schedule come from the
    netlist's shared :class:`TimingGraph`, built once per netlist object
    per process; only the geometric wire delays depend on
    the placement.  The scratch buffers :meth:`analyze` writes belong to
    the analyzer: the threads backend and the simulator run many evaluators
    on one problem, and threads can interleave inside :meth:`analyze`, so
    shared scratch would let one analysis overwrite another's.
    """

    def __init__(self, netlist: Netlist, model: TimingModel | None = None) -> None:
        self._netlist = netlist
        self._model = model or TimingModel()
        self._graph = timing_graph(netlist)
        # Per analyzer, so a test can force either path on one analyzer;
        # crossover measured on the paper circuits: ~2k edges
        self._use_scalar_propagation = self._graph.edge_src.size < 2048
        # Reusable scratch buffers for analyze(): allocated once on first
        # use, so a steady-state STA allocates O(1) fresh memory per call
        # (only the returned arrival copy) instead of O(cells + edges).
        self._scratch: dict | None = None

    def _make_scratch(self) -> dict:
        graph = self._graph
        num_cells = self._netlist.num_cells
        num_edges = graph.edge_src.size
        num_ends = graph.end_flat.size
        return {
            "x": np.empty(num_cells, dtype=np.float64),
            "y": np.empty(num_cells, dtype=np.float64),
            "edge_delay": np.empty(num_edges, dtype=np.float64),
            "edge_tmp": np.empty(num_edges, dtype=np.float64),
            "edge_tmp2": np.empty(num_edges, dtype=np.float64),
            "arrival": np.empty(num_cells, dtype=np.float64),
            "levels": tuple(
                (
                    np.empty(flat.size, dtype=np.float64),
                    np.empty(cells.size, dtype=np.float64),
                )
                for cells, flat, _starts, _delays, _sl in graph.level_schedule
            ),
            "end_a": np.empty(num_ends, dtype=np.float64),
            "end_b": np.empty(num_ends, dtype=np.float64),
            "end_c": np.empty(num_ends, dtype=np.float64),
        }

    @property
    def netlist(self) -> Netlist:
        """Netlist this analyzer was built for."""
        return self._netlist

    @property
    def model(self) -> TimingModel:
        """Interconnect delay model."""
        return self._model

    @property
    def graph(self) -> TimingGraph:
        """The netlist's shared, read-only timing graph."""
        return self._graph

    # ------------------------------------------------------------------ #
    def analyze(self, placement: Placement) -> TimingResult:
        """Run an exact STA under ``placement`` and extract the critical path.

        Arrival times are propagated one topological *level* at a time with
        segmented NumPy reductions (the graph's level schedule) —
        numerically identical to the scalar reference STA
        (``sta_reference`` in ``tests/oracles/kernels.py``) including
        first-maximum tie-breaking, but an order of magnitude faster on the
        paper circuits.  This is the cost that dominates installing a received
        solution, so the parallel protocol's per-hop overhead rides on it.
        All intermediate arrays live in per-analyzer scratch buffers, so a
        steady-state call allocates only the returned arrival copy — at 10k
        cells that is ~80 KB instead of several MB per STA.
        """
        graph = self._graph
        scratch = self._scratch
        if scratch is None:
            scratch = self._scratch = self._make_scratch()
        cts = placement.cell_to_slot
        layout = placement.layout
        x = scratch["x"]
        y = scratch["y"]
        np.take(layout.slot_x, cts, out=x)
        np.take(layout.slot_y, cts, out=y)
        wpu = self._model.wire_delay_per_unit
        # all propagating edge delays in one vectorised pass
        edge_delay = scratch["edge_delay"]
        if graph.edge_src.size:
            tmp = scratch["edge_tmp"]
            tmp2 = scratch["edge_tmp2"]
            np.take(x, graph.edge_src, out=edge_delay)
            np.take(x, graph.edge_dst, out=tmp)
            np.subtract(edge_delay, tmp, out=edge_delay)
            np.abs(edge_delay, out=edge_delay)
            np.take(y, graph.edge_src, out=tmp)
            np.take(y, graph.edge_dst, out=tmp2)
            np.subtract(tmp, tmp2, out=tmp)
            np.abs(tmp, out=tmp)
            np.add(edge_delay, tmp, out=edge_delay)
            np.multiply(edge_delay, wpu, out=edge_delay)
        # Cells without propagating fan-in arrive at their intrinsic delay;
        # every later level overwrites its own cells.
        if self._use_scalar_propagation:
            delays_list = graph.delays_list
            arr = list(delays_list)
            ed = edge_delay.tolist()
            index = 0
            for c, fanin in graph.scalar_schedule:
                best = -np.inf
                for d in fanin:
                    t = arr[d] + ed[index]
                    index += 1
                    if t > best:
                        best = t
                arr[c] = best + delays_list[c]
            arrival = np.asarray(arr, dtype=np.float64)
        else:
            arrival = scratch["arrival"]
            arrival[:] = graph.delays
            for (cells, flat, starts, cell_delays, edge_slice), (t_buf, red_buf) in zip(
                graph.level_schedule, scratch["levels"]
            ):
                np.take(arrival, flat, out=t_buf)
                np.add(t_buf, edge_delay[edge_slice], out=t_buf)
                np.maximum.reduceat(t_buf, starts, out=red_buf)
                np.add(red_buf, cell_delays, out=red_buf)
                arrival[cells] = red_buf
            # the scratch buffer is overwritten by the next analyze; callers
            # (and TimingState snapshots) keep the result, so hand out a copy
            arrival = arrival.copy()

        critical_delay = 0.0
        critical_end = -1
        critical_end_pred = -1
        if graph.end_flat.size:
            ends_rep = graph.ends_rep
            end_t = scratch["end_a"]
            end_tmp = scratch["end_b"]
            end_tmp2 = scratch["end_c"]
            np.take(x, graph.end_flat, out=end_t)
            np.take(x, ends_rep, out=end_tmp)
            np.subtract(end_t, end_tmp, out=end_t)
            np.abs(end_t, out=end_t)
            np.take(y, graph.end_flat, out=end_tmp)
            np.take(y, ends_rep, out=end_tmp2)
            np.subtract(end_tmp, end_tmp2, out=end_tmp)
            np.abs(end_tmp, out=end_tmp)
            np.add(end_t, end_tmp, out=end_t)
            np.multiply(end_t, wpu, out=end_t)
            np.take(arrival, graph.end_flat, out=end_tmp)
            np.add(end_t, end_tmp, out=end_t)
            imax = int(np.argmax(end_t))
            if float(end_t[imax]) > 0.0:
                critical_delay = float(end_t[imax])
                critical_end = int(ends_rep[imax])
                critical_end_pred = int(graph.end_flat[imax])

        # Backtrack the critical path: the predecessor of a path cell is its
        # first fan-in attaining the arrival maximum, exactly the reference
        # loop's strict-greater scan.  The path is short (one cell per level
        # at most), so a scalar walk here costs nothing.  Small circuits
        # unbox the arrays once (fastest for their dense walks); large ones
        # index the arrays directly to stay O(path) instead of O(cells).
        path: List[int] = []
        if critical_end >= 0 and not self._use_scalar_propagation:
            path.append(critical_end)
            cursor = critical_end_pred
            while cursor >= 0:
                path.append(cursor)
                fanin = graph.prop_fanin[cursor]
                if not fanin:
                    break
                xc = float(x[cursor])
                yc = float(y[cursor])
                best = -np.inf
                pred = -1
                for d in fanin:
                    t_d = float(arrival[d]) + wpu * (
                        abs(float(x[d]) - xc) + abs(float(y[d]) - yc)
                    )
                    if t_d > best:
                        best = t_d
                        pred = d
                cursor = pred
            path.reverse()
        elif critical_end >= 0:
            arrival_list = arrival.tolist()
            x_list = x.tolist()
            y_list = y.tolist()
            path.append(critical_end)
            cursor = critical_end_pred
            while cursor >= 0:
                path.append(cursor)
                fanin = graph.prop_fanin[cursor]
                if not fanin:
                    break
                xc = x_list[cursor]
                yc = y_list[cursor]
                best = -np.inf
                pred = -1
                for d in fanin:
                    t_d = arrival_list[d] + wpu * (
                        abs(x_list[d] - xc) + abs(y_list[d] - yc)
                    )
                    if t_d > best:
                        best = t_d
                        pred = d
                cursor = pred
            path.reverse()
        return TimingResult(
            critical_delay=float(critical_delay),
            arrival=arrival,
            critical_path=tuple(path),
        )

    def path_delay(self, placement: Placement, path: Sequence[int]) -> float:
        """Delay along a specific cell path under ``placement``."""
        if len(path) < 2:
            return 0.0
        x = placement.cell_x()
        y = placement.cell_y()
        wpu = self._model.wire_delay_per_unit
        path_arr = np.asarray(path, dtype=np.int64)
        px = x[path_arr]
        py = y[path_arr]
        wire = wpu * float(np.sum(np.abs(np.diff(px)) + np.abs(np.diff(py))))
        return self.path_intrinsic_delay(path) + wire

    def path_intrinsic_delay(self, path: Sequence[int]) -> float:
        """Sum of the intrinsic cell delays along ``path`` (placement-free).

        The start cell always contributes; intermediate cells contribute; the
        end point contributes only if it propagates (i.e. it is not a pure
        endpoint like a PO or a flip-flop D input).
        """
        if len(path) < 2:
            return 0.0
        graph = self._graph
        delays = graph.delays_list
        total = 0.0
        for idx, cell in enumerate(path):
            is_last = idx == len(path) - 1
            if is_last and graph.is_end[cell] and not graph.is_start[cell]:
                continue  # PO endpoint: no intrinsic delay after arrival
            if is_last and graph.is_seq[cell]:
                continue  # flip-flop D input endpoint
            total += delays[cell]
        return total


class TimingState:
    """Incremental timing cost bound to one :class:`Placement`.

    Keeps the last exact :class:`TimingResult` plus the set of cells on the
    cached critical path.  ``deltas_for_swaps`` evaluates how the *cached
    path's* delay would change if two cells swapped positions — exact when
    the swap touches the cached path, zero otherwise (an optimistic but cheap
    surrogate).  The exact analysis is refreshed on every ``refresh_interval``
    committed swaps or explicitly via :meth:`refresh`.
    """

    def __init__(
        self,
        placement: Placement,
        analyzer: TimingAnalyzer,
        *,
        refresh_interval: int = 8,
    ) -> None:
        if refresh_interval < 1:
            raise CostModelError(f"refresh_interval must be >= 1, got {refresh_interval}")
        self._placement = placement
        self._analyzer = analyzer
        self._refresh_interval = refresh_interval
        self._commits_since_refresh = 0
        self.refresh()

    @property
    def critical_delay(self) -> float:
        """Delay of the cached critical path under the current placement."""
        return self._cached_delay

    @property
    def critical_path(self) -> Tuple[int, ...]:
        """Cells on the cached critical path."""
        return self._result.critical_path

    @property
    def analyzer(self) -> TimingAnalyzer:
        """The underlying exact analyzer."""
        return self._analyzer

    def refresh(self) -> TimingResult:
        """Re-run the exact STA and reset the surrogate state."""
        self._result = self._analyzer.analyze(self._placement)
        self._cached_delay = self._result.critical_delay
        self._path_cells = frozenset(self._result.critical_path)
        self._commits_since_refresh = 0
        # Vectorised surrogate state: the path as an array, a dense membership
        # mask, and the placement-independent intrinsic-delay part.
        self._path_array = np.asarray(self._result.critical_path, dtype=np.int64)
        on_path = np.zeros(self._placement.num_cells, dtype=bool)
        on_path[self._path_array] = True
        self._on_path = on_path
        self._path_intrinsic = self._analyzer.path_intrinsic_delay(self._result.critical_path)
        return self._result

    def exact_delay(self) -> float:
        """Exact critical-path delay (runs a full STA, does not disturb caches)."""
        return self._analyzer.analyze(self._placement).critical_delay

    # ------------------------------------------------------------------ #
    # snapshot / restore (used by the search loop to try candidates cheaply)
    # ------------------------------------------------------------------ #
    def save_state(self) -> tuple:
        """Snapshot of the surrogate state, restorable via :meth:`restore_state`.

        The contained arrays are never mutated in place (``refresh`` rebuilds
        them), so references suffice — no copies needed.
        """
        return (
            self._result,
            self._cached_delay,
            self._path_cells,
            self._commits_since_refresh,
            self._path_array,
            self._on_path,
            self._path_intrinsic,
        )

    def restore_state(self, state: tuple) -> None:
        """Restore a snapshot (the placement must be restored separately)."""
        (
            self._result,
            self._cached_delay,
            self._path_cells,
            self._commits_since_refresh,
            self._path_array,
            self._on_path,
            self._path_intrinsic,
        ) = state

    def _reprice_path(self) -> float:
        """Delay of the cached path under the current placement.

        Same arithmetic as :meth:`TimingAnalyzer.path_delay`, but gathering
        only the path cells' coordinates instead of every cell's — this runs
        on every committed swap that touches the path.
        """
        path = self._path_array
        if path.size < 2:
            return 0.0
        cts = self._placement.cell_to_slot
        layout = self._placement.layout
        px = layout.slot_x[cts[path]]
        py = layout.slot_y[cts[path]]
        wpu = self._analyzer.model.wire_delay_per_unit
        wire = wpu * float(np.sum(np.abs(np.diff(px)) + np.abs(np.diff(py))))
        return self._path_intrinsic + wire

    # ------------------------------------------------------------------ #
    def deltas_for_swaps(self, cells_a, cells_b) -> np.ndarray:
        """Estimated critical-delay change of every candidate swap in a batch.

        Pairs touching the cached critical path re-price the whole path with
        the two positions exchanged; all other pairs (self-swaps included)
        score 0.  All touching pairs are priced together as one
        ``(pairs × path)`` broadcast.
        """
        a = np.atleast_1d(np.asarray(cells_a, dtype=np.int64))
        b = np.atleast_1d(np.asarray(cells_b, dtype=np.int64))
        num_pairs = int(a.size)
        out = np.zeros(num_pairs, dtype=np.float64)
        path = self._path_array
        if num_pairs == 0 or path.size < 2:
            return out
        touch = (self._on_path[a] | self._on_path[b]) & (a != b)
        if not touch.any():
            return out
        ai = a[touch]
        bi = b[touch]
        cts = self._placement.cell_to_slot
        slot_x = self._placement.layout.slot_x
        slot_y = self._placement.layout.slot_y
        # Only path cells and touched endpoints need coordinates — no
        # O(num_cells) gather.
        px = slot_x[cts[path]]
        py = slot_y[cts[path]]
        path_row = path[None, :]
        mask_a = path_row == ai[:, None]
        mask_b = path_row == bi[:, None]
        nx = np.where(
            mask_a, slot_x[cts[bi]][:, None],
            np.where(mask_b, slot_x[cts[ai]][:, None], px[None, :]),
        )
        ny = np.where(
            mask_a, slot_y[cts[bi]][:, None],
            np.where(mask_b, slot_y[cts[ai]][:, None], py[None, :]),
        )
        wpu = self._analyzer.model.wire_delay_per_unit
        wire = wpu * np.sum(np.abs(np.diff(nx, axis=1)) + np.abs(np.diff(ny, axis=1)), axis=1)
        out[touch] = (self._path_intrinsic + wire) - self._cached_delay
        return out

    def commit_swap(self, cell_a: int, cell_b: int) -> None:
        """Update the cached path delay after the placement swap was applied."""
        if cell_a == cell_b:
            return
        self._commits_since_refresh += 1
        if self._commits_since_refresh >= self._refresh_interval:
            self.refresh()
            return
        if cell_a in self._path_cells or cell_b in self._path_cells:
            self._cached_delay = self._reprice_path()

    def apply_bulk(self, cells: np.ndarray, num_swaps: int) -> None:
        """Account for a whole committed swap sequence at once.

        ``cells`` are the cells whose positions changed (placement already
        updated); ``num_swaps`` advances the refresh counter exactly like that
        many :meth:`commit_swap` calls, but the cached path is re-priced once
        instead of per swap.
        """
        if num_swaps <= 0:
            return
        self._commits_since_refresh += num_swaps
        if self._commits_since_refresh >= self._refresh_interval:
            self.refresh()
            return
        if np.any(self._on_path[np.asarray(cells, dtype=np.int64)]):
            self._cached_delay = self._reprice_path()
