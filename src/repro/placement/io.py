"""Plain-text serialisation of netlists and placements.

The original ISCAS-89 benchmarks ship as text netlists; this module provides
an equivalent (deliberately simple) exchange format so that circuits generated
here can be saved, inspected, diffed and reloaded, and so that placements
produced by a long run can be archived next to the experiment logs.

Netlist format (``.nl``)::

    # comment lines start with '#'
    circuit <name>
    cell <name> <kind> <width> <delay>
    ...
    net <name> <weight> <driver> <sink> [<sink> ...]
    ...

Placement format (``.pl``)::

    placement <circuit-name>
    <cell-name> <slot-index>
    ...

Both formats are line-oriented, whitespace-separated and stable under
round-tripping (``write → read → write`` produces identical text).
"""

from __future__ import annotations

import io as _io
from pathlib import Path
from typing import Dict, TextIO, Union

import numpy as np

from ..errors import NetlistError, PlacementError
from .cell import CellKind
from .layout import Layout
from .netlist import Netlist, NetlistBuilder
from .solution import Placement

__all__ = [
    "write_netlist",
    "read_netlist",
    "netlist_to_string",
    "netlist_from_string",
    "write_placement",
    "read_placement",
]

PathOrFile = Union[str, Path, TextIO]

_KIND_TO_TOKEN = {
    CellKind.COMBINATIONAL: "comb",
    CellKind.SEQUENTIAL: "seq",
    CellKind.PRIMARY_INPUT: "pi",
    CellKind.PRIMARY_OUTPUT: "po",
}
_TOKEN_TO_KIND = {token: kind for kind, token in _KIND_TO_TOKEN.items()}


def _open_for_write(target: PathOrFile):
    if isinstance(target, (str, Path)):
        return open(target, "w", encoding="utf-8"), True
    return target, False


def _open_for_read(source: PathOrFile):
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8"), True
    return source, False


# --------------------------------------------------------------------------- #
# netlists
# --------------------------------------------------------------------------- #
def write_netlist(netlist: Netlist, target: PathOrFile) -> None:
    """Write ``netlist`` to a file path or an open text stream."""
    stream, should_close = _open_for_write(target)
    try:
        stream.write(f"# repro netlist format v1\ncircuit {netlist.name}\n")
        for cell in netlist.cells:
            stream.write(
                f"cell {cell.name} {_KIND_TO_TOKEN[cell.kind]} "
                f"{cell.width!r} {cell.delay!r}\n"
            )
        for net in netlist.nets:
            driver = netlist.cell(net.driver).name
            sinks = " ".join(netlist.cell(s).name for s in net.sinks)
            stream.write(f"net {net.name} {net.weight!r} {driver} {sinks}\n")
    finally:
        if should_close:
            stream.close()


def netlist_to_string(netlist: Netlist) -> str:
    """Serialise a netlist to a string."""
    buffer = _io.StringIO()
    write_netlist(netlist, buffer)
    return buffer.getvalue()


def read_netlist(source: PathOrFile) -> Netlist:
    """Read a netlist written by :func:`write_netlist`."""
    stream, should_close = _open_for_read(source)
    try:
        builder: NetlistBuilder | None = None
        for line_number, raw_line in enumerate(stream, start=1):
            line = raw_line.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            keyword = tokens[0]
            if keyword == "circuit":
                if len(tokens) != 2:
                    raise NetlistError(f"line {line_number}: malformed circuit line {line!r}")
                builder = NetlistBuilder(tokens[1])
            elif keyword == "cell":
                if builder is None:
                    raise NetlistError(f"line {line_number}: 'cell' before 'circuit'")
                if len(tokens) != 5:
                    raise NetlistError(f"line {line_number}: malformed cell line {line!r}")
                _, name, kind_token, width, delay = tokens
                if kind_token not in _TOKEN_TO_KIND:
                    raise NetlistError(
                        f"line {line_number}: unknown cell kind {kind_token!r}"
                    )
                builder.add_cell(
                    name,
                    kind=_TOKEN_TO_KIND[kind_token],
                    width=float(width),
                    delay=float(delay),
                )
            elif keyword == "net":
                if builder is None:
                    raise NetlistError(f"line {line_number}: 'net' before 'circuit'")
                if len(tokens) < 5:
                    raise NetlistError(f"line {line_number}: malformed net line {line!r}")
                _, name, weight, driver, *sinks = tokens
                builder.add_net(name, driver=driver, sinks=sinks, weight=float(weight))
            else:
                raise NetlistError(f"line {line_number}: unknown keyword {keyword!r}")
        if builder is None:
            raise NetlistError("netlist file contains no 'circuit' line")
        return builder.build()
    finally:
        if should_close:
            stream.close()


def netlist_from_string(text: str) -> Netlist:
    """Parse a netlist from a string produced by :func:`netlist_to_string`."""
    return read_netlist(_io.StringIO(text))


# --------------------------------------------------------------------------- #
# placements
# --------------------------------------------------------------------------- #
def write_placement(placement: Placement, target: PathOrFile) -> None:
    """Write a placement (cell → slot assignment) to a path or stream."""
    stream, should_close = _open_for_write(target)
    try:
        netlist = placement.netlist
        stream.write(f"# repro placement format v1\nplacement {netlist.name}\n")
        for cell in netlist.cells:
            stream.write(f"{cell.name} {placement.slot_of(cell.index)}\n")
    finally:
        if should_close:
            stream.close()


def read_placement(source: PathOrFile, layout: Layout) -> Placement:
    """Read a placement written by :func:`write_placement` for ``layout``."""
    stream, should_close = _open_for_read(source)
    try:
        netlist = layout.netlist
        name_to_index: Dict[str, int] = {cell.name: cell.index for cell in netlist.cells}
        assignment = np.full(netlist.num_cells, -1, dtype=np.int64)
        circuit_name: str | None = None
        for line_number, raw_line in enumerate(stream, start=1):
            line = raw_line.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if tokens[0] == "placement":
                if len(tokens) != 2:
                    raise PlacementError(f"line {line_number}: malformed placement header")
                circuit_name = tokens[1]
                if circuit_name != netlist.name:
                    raise PlacementError(
                        f"placement file is for circuit {circuit_name!r}, "
                        f"layout is for {netlist.name!r}"
                    )
                continue
            if len(tokens) != 2:
                raise PlacementError(f"line {line_number}: malformed assignment {line!r}")
            cell_name, slot = tokens
            if cell_name not in name_to_index:
                raise PlacementError(
                    f"line {line_number}: cell {cell_name!r} not in circuit {netlist.name!r}"
                )
            assignment[name_to_index[cell_name]] = int(slot)
        if np.any(assignment < 0):
            missing = [c.name for c in netlist.cells if assignment[c.index] < 0]
            raise PlacementError(f"placement file misses cells: {missing[:5]} ...")
        return Placement(layout, assignment)
    finally:
        if should_close:
            stream.close()
