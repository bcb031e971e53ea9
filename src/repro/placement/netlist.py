"""Netlist container: the hypergraph of cells and nets.

The :class:`Netlist` is a set of NumPy arrays: per-cell widths, delays and
kind codes, net weights, the net→cell CSR (compressed sparse row) structure,
its transpose (cell→net), the fan-in CSR the timing analysis reads, and the
cell and net names as UTF-8 bytes.  The objective functions use those arrays
in their hot loops.  The object view (:class:`~repro.placement.cell.Cell` /
:class:`~repro.placement.cell.Net` tuples, per-cell fan-in and fan-out
tuples) is built on first use, so a worker that restores a netlist around
shared-memory arrays and only searches never builds it.

A :class:`NetlistBuilder` provides a forgiving, name-based construction API;
:meth:`NetlistBuilder.build` validates the structure and freezes it into a
:class:`Netlist`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import NetlistError
from .cell import Cell, CellKind, Net

__all__ = ["Netlist", "NetlistBuilder", "NetlistStats", "csr_group", "csr_lists", "csr_rows"]


def csr_rows(flat: np.ndarray, ptr: np.ndarray, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Gather several variable-length rows of a CSR structure at once.

    Returns ``(values, counts)`` where ``values`` is the concatenation of
    ``flat[ptr[r]:ptr[r+1]]`` for every ``r`` in ``rows`` and ``counts[i]`` is
    the length of the ``i``-th row.  This is the core expansion primitive of
    the batched swap-evaluation kernels: it replaces a Python loop over rows
    with three vectorised operations.
    """
    rows = np.asarray(rows, dtype=np.int64)
    starts = ptr[rows]
    counts = ptr[rows + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=flat.dtype), counts
    # Index arithmetic: for each output position, the offset within its row is
    # a global arange minus the cumulative length of all preceding rows.
    offsets = np.cumsum(counts) - counts
    within = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
    return flat[np.repeat(starts, counts) + within], counts


def csr_lists(flat: np.ndarray, ptr: np.ndarray) -> List[list]:
    """Every row of a CSR structure as a Python list of ints.

    One ``tolist`` of each array and a slice per row: on 10k rows that is
    several times cheaper than a ``tolist`` call per row.
    """
    values = flat.tolist()
    bounds = ptr.tolist()
    return [values[start:stop] for start, stop in zip(bounds, bounds[1:])]


def csr_group(keys: np.ndarray, values: np.ndarray, num_rows: int) -> Tuple[np.ndarray, np.ndarray]:
    """CSR ``(ptr, flat)`` of ``values`` grouped by their row ``keys``
    (``0 <= key < num_rows``), in input order within each row: one stable
    sort."""
    ptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=num_rows), out=ptr[1:])
    return ptr, values[np.argsort(keys, kind="stable")]


def _sink_pins(net_ptr: np.ndarray, flat_members: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every sink pin as aligned ``(drivers, sinks)`` arrays, in pin order."""
    starts = net_ptr[:-1]
    is_sink = np.ones(flat_members.size, dtype=bool)
    is_sink[starts] = False
    return np.repeat(flat_members[starts], np.diff(net_ptr) - 1), flat_members[is_sink]


def _encode_names(names: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
    """Names as one UTF-8 byte array and a CSR row pointer into it."""
    encoded = [name.encode() for name in names]
    ptr = np.zeros(len(encoded) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded)), out=ptr[1:])
    return np.frombuffer(b"".join(encoded), dtype=np.uint8), ptr


def _decode_names(data: np.ndarray, ptr: np.ndarray) -> List[str]:
    blob = data.tobytes()
    bounds = ptr.tolist()
    return [blob[start:stop].decode() for start, stop in zip(bounds, bounds[1:])]


@dataclass(frozen=True, slots=True)
class NetlistStats:
    """Summary statistics of a netlist, handy for logging and tests."""

    name: str
    num_cells: int
    num_nets: int
    num_pins: int
    avg_net_degree: float
    max_net_degree: int
    avg_cell_fanout: float
    total_cell_width: float
    num_primary_inputs: int
    num_primary_outputs: int
    num_sequential: int

    def as_dict(self) -> Dict[str, float]:
        """Return the statistics as a plain dictionary (for reports)."""
        return {
            "name": self.name,
            "num_cells": self.num_cells,
            "num_nets": self.num_nets,
            "num_pins": self.num_pins,
            "avg_net_degree": self.avg_net_degree,
            "max_net_degree": self.max_net_degree,
            "avg_cell_fanout": self.avg_cell_fanout,
            "total_cell_width": self.total_cell_width,
            "num_primary_inputs": self.num_primary_inputs,
            "num_primary_outputs": self.num_primary_outputs,
            "num_sequential": self.num_sequential,
        }


class Netlist:
    """Immutable hypergraph of cells and nets.

    Instances are normally created through :class:`NetlistBuilder` or the
    synthetic circuit generator (:mod:`repro.placement.generator`).

    Parameters
    ----------
    name:
        Human-readable circuit name (e.g. ``"c532"``).
    cells:
        Sequence of :class:`Cell` whose ``index`` equals their position.
    nets:
        Sequence of :class:`Net` whose ``index`` equals their position and
        whose member indices refer to ``cells``.
    """

    #: Encoding order of :class:`CellKind` in :attr:`cell_kinds`.
    KIND_ORDER = (
        CellKind.COMBINATIONAL,
        CellKind.SEQUENTIAL,
        CellKind.PRIMARY_INPUT,
        CellKind.PRIMARY_OUTPUT,
    )

    def __init__(self, name: str, cells: Sequence[Cell], nets: Sequence[Net]) -> None:
        self._name = name
        cells = tuple(cells)
        nets = tuple(nets)
        self._validate(cells, nets)
        members = [net.members for net in nets]
        net_ptr = np.zeros(len(nets) + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, members), dtype=np.int64, count=len(nets)), out=net_ptr[1:])
        flat_members = np.fromiter(
            chain.from_iterable(members), dtype=np.int64, count=int(net_ptr[-1])
        )
        pin_net = np.repeat(np.arange(len(nets), dtype=np.int64), np.diff(net_ptr))
        cell_net_ptr, cell_net_flat = csr_group(flat_members, pin_net, len(cells))
        drivers, sinks = _sink_pins(net_ptr, flat_members)
        fanin_ptr, fanin_flat = csr_group(sinks, drivers, len(cells))
        code = {kind: index for index, kind in enumerate(self.KIND_ORDER)}
        cell_name_bytes, cell_name_ptr = _encode_names([cell.name for cell in cells])
        net_name_bytes, net_name_ptr = _encode_names([net.name for net in nets])
        self._adopt({
            "cell_widths": np.array([c.width for c in cells], dtype=np.float64),
            "cell_delays": np.array([c.delay for c in cells], dtype=np.float64),
            "cell_kinds": np.array([code[c.kind] for c in cells], dtype=np.int8),
            "net_weights": np.array([net.weight for net in nets], dtype=np.float64),
            "net_ptr": net_ptr,
            "flat_members": flat_members,
            "cell_net_ptr": cell_net_ptr,
            "cell_net_flat": cell_net_flat,
            "fanin_ptr": fanin_ptr,
            "fanin_flat": fanin_flat,
            "cell_name_bytes": cell_name_bytes,
            "cell_name_ptr": cell_name_ptr,
            "net_name_bytes": net_name_bytes,
            "net_name_ptr": net_name_ptr,
        })
        self._cells = cells
        self._nets = nets

    # ------------------------------------------------------------------ #
    # array (shared-memory) round trip
    # ------------------------------------------------------------------ #
    def _adopt(self, arrays: Dict[str, np.ndarray]) -> None:
        """Take ``arrays`` as this netlist's state; the object view is unbuilt."""
        self._arrays = dict(arrays)
        self._widths = arrays["cell_widths"]
        self._delays = arrays["cell_delays"]
        self._kinds = arrays["cell_kinds"]
        self._net_weights = arrays["net_weights"]
        self._net_ptr = arrays["net_ptr"]
        self._flat_members = arrays["flat_members"]
        self._net_degrees = np.diff(self._net_ptr)
        self._cell_net_ptr = arrays["cell_net_ptr"]
        self._cell_net_flat = arrays["cell_net_flat"]
        self._fanin_ptr = arrays["fanin_ptr"]
        self._fanin_flat = arrays["fanin_flat"]
        self._cells: Optional[Tuple[Cell, ...]] = None
        self._nets: Optional[Tuple[Net, ...]] = None
        self._fanin: Optional[Tuple[Tuple[int, ...], ...]] = None
        self._fanout: Optional[Tuple[Tuple[int, ...], ...]] = None

    def export_arrays(self) -> Tuple[Dict[str, np.ndarray], Dict[str, object]]:
        """Split the netlist into numeric arrays and its name.

        The arrays carry everything: per-cell attributes, the CSR incidence
        and fan-in structures and the cell and net names as UTF-8 bytes;
        ``meta`` carries only the circuit name.  The multiprocessing backend
        places the arrays in shared memory so a spawn ships a handle instead
        of a pickle — see :meth:`from_arrays`.
        """
        return dict(self._arrays), {"name": self._name}

    @classmethod
    def from_arrays(
        cls, arrays: Dict[str, np.ndarray], meta: Dict[str, object]
    ) -> "Netlist":
        """Rebuild a netlist around (possibly shared-memory) arrays.

        The members reference ``arrays`` directly — no copies, so views into
        a shared block stay zero-copy — and validation is skipped: the
        arrays came from a validated instance's :meth:`export_arrays`.
        Nothing is rebuilt; the object view is built on first use.
        """
        netlist = object.__new__(cls)
        netlist._name = meta["name"]
        netlist._adopt(arrays)
        return netlist

    def __getstate__(self) -> tuple:
        # the arrays alone: the object view is rebuilt on first use, so a
        # pickle does not depend on whether it was built
        return self._name, self._arrays

    def __setstate__(self, state: tuple) -> None:
        self._name, arrays = state
        self._adopt(arrays)

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    def _validate(self, cells: Tuple[Cell, ...], nets: Tuple[Net, ...]) -> None:
        if not cells:
            raise NetlistError(f"netlist {self._name!r}: must contain at least one cell")
        names = set()
        for pos, cell in enumerate(cells):
            if cell.index != pos:
                raise NetlistError(
                    f"netlist {self._name!r}: cell {cell.name!r} has index {cell.index}, expected {pos}"
                )
            if cell.name in names:
                raise NetlistError(f"netlist {self._name!r}: duplicate cell name {cell.name!r}")
            names.add(cell.name)
        net_names = set()
        n = len(cells)
        for pos, net in enumerate(nets):
            if net.index != pos:
                raise NetlistError(
                    f"netlist {self._name!r}: net {net.name!r} has index {net.index}, expected {pos}"
                )
            if net.name in net_names:
                raise NetlistError(f"netlist {self._name!r}: duplicate net name {net.name!r}")
            net_names.add(net.name)
            for member in net.members:
                if not (0 <= member < n):
                    raise NetlistError(
                        f"netlist {self._name!r}: net {net.name!r} references unknown cell index {member}"
                    )

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Circuit name."""
        return self._name

    @property
    def num_cells(self) -> int:
        """Number of cells (including pads)."""
        return int(self._widths.size)

    @property
    def num_nets(self) -> int:
        """Number of nets."""
        return int(self._net_weights.size)

    @property
    def num_pins(self) -> int:
        """Total number of pins (sum of net degrees)."""
        return int(self._net_ptr[-1])

    @property
    def cells(self) -> Tuple[Cell, ...]:
        """All cells, ordered by index (built on first use)."""
        if self._cells is None:
            arrays = self._arrays
            kinds = [self.KIND_ORDER[code] for code in self._kinds.tolist()]
            self._cells = tuple(
                Cell(name=name, index=index, width=width, delay=delay, kind=kind)
                for index, (name, width, delay, kind) in enumerate(zip(
                    _decode_names(arrays["cell_name_bytes"], arrays["cell_name_ptr"]),
                    self._widths.tolist(),
                    self._delays.tolist(),
                    kinds,
                ))
            )
        return self._cells

    @property
    def nets(self) -> Tuple[Net, ...]:
        """All nets, ordered by index (built on first use)."""
        if self._nets is None:
            arrays = self._arrays
            self._nets = tuple(
                Net(name=name, index=index, driver=members[0], sinks=tuple(members[1:]),
                    weight=weight)
                for index, (name, members, weight) in enumerate(zip(
                    _decode_names(arrays["net_name_bytes"], arrays["net_name_ptr"]),
                    csr_lists(self._flat_members, self._net_ptr),
                    self._net_weights.tolist(),
                ))
            )
        return self._nets

    def cell(self, index: int) -> Cell:
        """Return the cell with the given dense index."""
        return self.cells[index]

    def net(self, index: int) -> Net:
        """Return the net with the given dense index."""
        return self.nets[index]

    def cell_by_name(self, name: str) -> Cell:
        """Look up a cell by name (O(n); intended for tests and tooling)."""
        for cell in self.cells:
            if cell.name == name:
                return cell
        raise NetlistError(f"netlist {self._name!r}: no cell named {name!r}")

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.cells)

    def __len__(self) -> int:
        return self.num_cells

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Netlist(name={self._name!r}, cells={self.num_cells}, nets={self.num_nets})"

    # ------------------------------------------------------------------ #
    # vectorised views used by the objective functions
    # ------------------------------------------------------------------ #
    @staticmethod
    def _view(array: np.ndarray) -> np.ndarray:
        view = array.view()
        view.flags.writeable = False
        return view

    @property
    def cell_widths(self) -> np.ndarray:
        """Array of cell widths, indexed by cell index (read-only view)."""
        return self._view(self._widths)

    @property
    def cell_delays(self) -> np.ndarray:
        """Array of intrinsic cell delays (read-only view)."""
        return self._view(self._delays)

    @property
    def cell_kinds(self) -> np.ndarray:
        """Kind code of every cell, an index into :attr:`KIND_ORDER` (read-only view)."""
        return self._view(self._kinds)

    @property
    def net_weights(self) -> np.ndarray:
        """Array of net weights (read-only view)."""
        return self._view(self._net_weights)

    @property
    def net_ptr(self) -> np.ndarray:
        """CSR row pointer into :attr:`flat_members` (length ``num_nets + 1``)."""
        return self._view(self._net_ptr)

    @property
    def flat_members(self) -> np.ndarray:
        """Flattened net membership array (driver first, then sinks, per net)."""
        return self._view(self._flat_members)

    @property
    def cell_net_ptr(self) -> np.ndarray:
        """CSR row pointer into :attr:`cell_net_flat` (length ``num_cells + 1``)."""
        return self._view(self._cell_net_ptr)

    @property
    def cell_net_flat(self) -> np.ndarray:
        """Flattened cell→net incidence array (nets of cell ``c`` are
        ``cell_net_flat[cell_net_ptr[c]:cell_net_ptr[c+1]]``)."""
        return self._view(self._cell_net_flat)

    @property
    def fanin_ptr(self) -> np.ndarray:
        """CSR row pointer into :attr:`fanin_flat` (length ``num_cells + 1``)."""
        return self._view(self._fanin_ptr)

    @property
    def fanin_flat(self) -> np.ndarray:
        """Flattened fan-in: the drivers of cell ``c`` are
        ``fanin_flat[fanin_ptr[c]:fanin_ptr[c+1]]``, in net order."""
        return self._view(self._fanin_flat)

    @property
    def net_degrees(self) -> np.ndarray:
        """Number of members of each net (read-only view)."""
        return self._view(self._net_degrees)

    def net_members(self, net_index: int) -> np.ndarray:
        """Cell indices attached to ``net_index`` (driver first)."""
        start, stop = self._net_ptr[net_index], self._net_ptr[net_index + 1]
        return self._flat_members[start:stop]

    def net_members_of(self, net_indices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Members of several nets at once: ``(flat_cells, counts)``."""
        return csr_rows(self._flat_members, self._net_ptr, net_indices)

    def nets_of_cells_flat(self, cell_indices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Incident nets of several cells at once: ``(flat_nets, counts)``.

        Keeps per-cell segments (no deduplication across cells), which is
        what the batch kernels need.  Within one cell's segment every net
        appears exactly once because net members are validated to be
        distinct.
        """
        return csr_rows(self._cell_net_flat, self._cell_net_ptr, cell_indices)

    def nets_of_cell(self, cell_index: int) -> np.ndarray:
        """Indices of the nets incident to ``cell_index``."""
        start, stop = self._cell_net_ptr[cell_index], self._cell_net_ptr[cell_index + 1]
        return self._cell_net_flat[start:stop]

    def fanout(self, cell_index: int) -> Tuple[int, ...]:
        """Cells driven (directly) by ``cell_index``, in net order."""
        if self._fanout is None:
            drivers, sinks = _sink_pins(self._net_ptr, self._flat_members)
            ptr, flat = csr_group(drivers, sinks, self.num_cells)
            self._fanout = tuple(map(tuple, csr_lists(flat, ptr)))
        return self._fanout[cell_index]

    def fanin(self, cell_index: int) -> Tuple[int, ...]:
        """Cells directly driving ``cell_index``, in net order."""
        if self._fanin is None:
            self._fanin = tuple(map(tuple, csr_lists(self._fanin_flat, self._fanin_ptr)))
        return self._fanin[cell_index]

    # ------------------------------------------------------------------ #
    # statistics
    # ------------------------------------------------------------------ #
    def stats(self) -> NetlistStats:
        """Compute summary statistics (cheap; O(cells + pins))."""
        degrees = self._net_degrees
        fanouts = np.bincount(
            self._flat_members[self._net_ptr[:-1]], weights=degrees - 1,
            minlength=self.num_cells,
        )
        kind_counts = np.bincount(self._kinds, minlength=len(self.KIND_ORDER)).tolist()
        count = dict(zip(self.KIND_ORDER, kind_counts))
        return NetlistStats(
            name=self._name,
            num_cells=self.num_cells,
            num_nets=self.num_nets,
            num_pins=self.num_pins,
            avg_net_degree=float(degrees.mean()) if self.num_nets else 0.0,
            max_net_degree=int(degrees.max()) if self.num_nets else 0,
            avg_cell_fanout=float(fanouts.mean()),
            total_cell_width=float(self._widths.sum()),
            num_primary_inputs=count[CellKind.PRIMARY_INPUT],
            num_primary_outputs=count[CellKind.PRIMARY_OUTPUT],
            num_sequential=count[CellKind.SEQUENTIAL],
        )


class NetlistBuilder:
    """Incremental, name-based netlist construction.

    Example
    -------
    >>> builder = NetlistBuilder("tiny")
    >>> builder.add_cell("a", kind=CellKind.PRIMARY_INPUT, delay=0.0)
    >>> builder.add_cell("g1")
    >>> builder.add_cell("z", kind=CellKind.PRIMARY_OUTPUT, delay=0.0)
    >>> builder.add_net("n1", driver="a", sinks=["g1"])
    >>> builder.add_net("n2", driver="g1", sinks=["z"])
    >>> netlist = builder.build()
    >>> netlist.num_cells, netlist.num_nets
    (3, 2)
    """

    def __init__(self, name: str) -> None:
        self._name = name
        self._cells: List[Cell] = []
        self._cell_index: Dict[str, int] = {}
        self._net_specs: List[Tuple[str, str, Tuple[str, ...], float]] = []
        self._net_names: set[str] = set()

    @property
    def num_cells(self) -> int:
        """Number of cells added so far."""
        return len(self._cells)

    def add_cell(
        self,
        name: str,
        *,
        width: float = 1.0,
        delay: float = 1.0,
        kind: CellKind = CellKind.COMBINATIONAL,
    ) -> int:
        """Add a cell and return its dense index."""
        if name in self._cell_index:
            raise NetlistError(f"builder {self._name!r}: duplicate cell name {name!r}")
        index = len(self._cells)
        self._cells.append(Cell(name=name, index=index, width=width, delay=delay, kind=kind))
        self._cell_index[name] = index
        return index

    def add_net(
        self,
        name: str,
        *,
        driver: str,
        sinks: Iterable[str],
        weight: float = 1.0,
    ) -> None:
        """Add a net connecting named cells (cells must already exist)."""
        if name in self._net_names:
            raise NetlistError(f"builder {self._name!r}: duplicate net name {name!r}")
        sinks = tuple(sinks)
        if driver not in self._cell_index:
            raise NetlistError(f"builder {self._name!r}: net {name!r} driver {driver!r} unknown")
        for sink in sinks:
            if sink not in self._cell_index:
                raise NetlistError(f"builder {self._name!r}: net {name!r} sink {sink!r} unknown")
        self._net_names.add(name)
        self._net_specs.append((name, driver, sinks, weight))

    def build(self) -> Netlist:
        """Validate and freeze the accumulated cells/nets into a :class:`Netlist`."""
        nets = []
        for pos, (name, driver, sinks, weight) in enumerate(self._net_specs):
            nets.append(
                Net(
                    name=name,
                    index=pos,
                    driver=self._cell_index[driver],
                    sinks=tuple(self._cell_index[s] for s in sinks),
                    weight=weight,
                )
            )
        return Netlist(self._name, self._cells, nets)
