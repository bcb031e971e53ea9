"""Unit tests for the netlist container and builder."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import NetlistError
from repro.placement import CellKind, NetlistBuilder, load_benchmark
from repro.placement.cell import Cell, Net
from repro.placement.netlist import Netlist


def build_small():
    builder = NetlistBuilder("small")
    builder.add_cell("a", kind=CellKind.PRIMARY_INPUT, delay=0.0)
    builder.add_cell("b", kind=CellKind.PRIMARY_INPUT, delay=0.0)
    builder.add_cell("g1", width=2.0, delay=1.0)
    builder.add_cell("g2", width=3.0, delay=2.0)
    builder.add_cell("z", kind=CellKind.PRIMARY_OUTPUT, delay=0.0)
    builder.add_net("n1", driver="a", sinks=["g1", "g2"])
    builder.add_net("n2", driver="b", sinks=["g1"])
    builder.add_net("n3", driver="g1", sinks=["g2"])
    builder.add_net("n4", driver="g2", sinks=["z"], weight=2.0)
    return builder.build()


class TestNetlistBuilder:
    def test_build_round_trip(self):
        netlist = build_small()
        assert netlist.num_cells == 5
        assert netlist.num_nets == 4
        assert netlist.num_pins == 4 + 2 + 2 + 2 - 1  # degrees: 3+2+2+2

    def test_duplicate_cell_rejected(self):
        builder = NetlistBuilder("dup")
        builder.add_cell("a")
        with pytest.raises(NetlistError, match="duplicate cell"):
            builder.add_cell("a")

    def test_duplicate_net_rejected(self):
        builder = NetlistBuilder("dup")
        builder.add_cell("a")
        builder.add_cell("b")
        builder.add_net("n", driver="a", sinks=["b"])
        with pytest.raises(NetlistError, match="duplicate net"):
            builder.add_net("n", driver="b", sinks=["a"])

    def test_unknown_driver_rejected(self):
        builder = NetlistBuilder("bad")
        builder.add_cell("a")
        with pytest.raises(NetlistError, match="driver"):
            builder.add_net("n", driver="zzz", sinks=["a"])

    def test_unknown_sink_rejected(self):
        builder = NetlistBuilder("bad")
        builder.add_cell("a")
        with pytest.raises(NetlistError, match="sink"):
            builder.add_net("n", driver="a", sinks=["zzz"])


class TestNetlistValidation:
    def test_empty_netlist_rejected(self):
        with pytest.raises(NetlistError, match="at least one cell"):
            Netlist("empty", [], [])

    def test_misindexed_cell_rejected(self):
        cells = [Cell(name="a", index=1)]
        with pytest.raises(NetlistError, match="has index"):
            Netlist("bad", cells, [])

    def test_net_referencing_unknown_cell_rejected(self):
        cells = [Cell(name="a", index=0), Cell(name="b", index=1)]
        nets = [Net(name="n", index=0, driver=0, sinks=(5,))]
        with pytest.raises(NetlistError, match="unknown cell index"):
            Netlist("bad", cells, nets)


class TestNetlistAccessors:
    def test_vector_views_are_read_only(self):
        netlist = build_small()
        with pytest.raises(ValueError):
            netlist.cell_widths[0] = 99.0
        with pytest.raises(ValueError):
            netlist.net_weights[0] = 99.0

    def test_net_members_csr(self):
        netlist = build_small()
        members = netlist.net_members(0)
        assert list(members) == [0, 2, 3]  # a drives g1, g2

    def test_nets_of_cell(self):
        netlist = build_small()
        g1 = netlist.cell_by_name("g1").index
        nets = set(netlist.nets_of_cell(g1))
        assert nets == {0, 1, 2}

    def test_nets_of_cells_union(self):
        # one segment per cell, each that cell's nets; their union is
        # every net touching either cell
        netlist = build_small()
        nets, counts = netlist.nets_of_cells_flat(np.array([0, 1]))
        assert counts.tolist() == [len(netlist.nets_of_cell(0)), len(netlist.nets_of_cell(1))]
        assert nets[: counts[0]].tolist() == netlist.nets_of_cell(0).tolist()
        assert set(nets.tolist()) == {0, 1}

    def test_fanin_fanout(self):
        netlist = build_small()
        g2 = netlist.cell_by_name("g2").index
        assert set(netlist.fanin(g2)) == {0, 2}
        assert set(netlist.fanout(g2)) == {4}

    def test_cell_by_name_missing(self):
        netlist = build_small()
        with pytest.raises(NetlistError, match="no cell named"):
            netlist.cell_by_name("does-not-exist")

    def test_iteration_and_len(self):
        netlist = build_small()
        assert len(netlist) == 5
        assert [cell.name for cell in netlist][:2] == ["a", "b"]


class TestNetlistStats:
    def test_stats_values(self):
        netlist = build_small()
        stats = netlist.stats()
        assert stats.num_cells == 5
        assert stats.num_nets == 4
        assert stats.num_primary_inputs == 2
        assert stats.num_primary_outputs == 1
        assert stats.total_cell_width == pytest.approx(1 + 1 + 2 + 3 + 1)
        assert stats.max_net_degree == 3
        assert stats.as_dict()["num_cells"] == 5


class TestArrayForm:
    def test_pickle_round_trip_keeps_every_view(self):
        netlist = build_small()
        copy = pickle.loads(pickle.dumps(netlist))
        assert copy.cells == netlist.cells
        assert copy.nets == netlist.nets
        assert copy.stats() == netlist.stats()
        assert [copy.fanin(c) for c in range(5)] == [netlist.fanin(c) for c in range(5)]
        assert [copy.fanout(c) for c in range(5)] == [netlist.fanout(c) for c in range(5)]

    def test_pickle_does_not_depend_on_the_built_object_view(self):
        netlist = Netlist.from_arrays(*build_small().export_arrays())
        before = pickle.dumps(netlist)
        netlist.cells, netlist.nets, netlist.fanin(0), netlist.fanout(0)
        assert pickle.dumps(netlist) == before

    def test_fanin_csr_keeps_net_order_and_repeated_drivers(self):
        builder = NetlistBuilder("repeat")
        for name in ("a", "b", "g"):
            builder.add_cell(name)
        builder.add_net("n0", driver="b", sinks=["g"])
        builder.add_net("n1", driver="a", sinks=["g", "b"])
        builder.add_net("n2", driver="b", sinks=["g"])
        netlist = builder.build()
        assert netlist.fanin(2) == (1, 0, 1)
        assert netlist.fanout(1) == (2, 2)
        assert netlist.fanin_flat.tolist() == [0, 1, 0, 1]
        assert netlist.fanin_ptr.tolist() == [0, 0, 1, 4]
        assert netlist.cell_kinds.tolist() == [0, 0, 0]

    def test_names_round_trip_through_utf8_bytes(self):
        builder = NetlistBuilder("names")
        builder.add_cell("é")
        builder.add_cell("")
        builder.add_cell("z z")
        builder.add_net("→", driver="é", sinks=["", "z z"])
        arrays, meta = builder.build().export_arrays()
        assert meta == {"name": "names"}
        assert arrays["cell_name_bytes"].dtype == np.uint8
        restored = Netlist.from_arrays(arrays, meta)
        assert [cell.name for cell in restored] == ["é", "", "z z"]
        assert restored.net(0).name == "→"


@pytest.mark.parametrize("name", ["c532", "big2k"])
def test_fanin_fanout_and_stats_follow_the_nets(name):
    """The CSR-backed fan-in, fan-out and statistics agree with the nets
    read one by one, as the per-net loops they replaced did."""
    from oracles.timing_graph import reference_fanin

    netlist = load_benchmark(name, use_cache=False)
    fanout = [[] for _ in range(netlist.num_cells)]
    for net in netlist.nets:
        fanout[net.driver].extend(net.sinks)
    fanin = reference_fanin(netlist)
    assert [netlist.fanin(c) for c in range(netlist.num_cells)] == list(fanin)
    assert [netlist.fanout(c) for c in range(netlist.num_cells)] == [tuple(f) for f in fanout]
    stats = netlist.stats()
    assert stats.avg_cell_fanout == float(np.array([len(f) for f in fanout], dtype=np.float64).mean())
    kinds = [cell.kind for cell in netlist.cells]
    assert stats.num_primary_inputs == kinds.count(CellKind.PRIMARY_INPUT)
    assert stats.num_primary_outputs == kinds.count(CellKind.PRIMARY_OUTPUT)
    assert stats.num_sequential == kinds.count(CellKind.SEQUENTIAL)
