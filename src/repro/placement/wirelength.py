"""Wirelength objective: weighted half-perimeter wirelength (HPWL).

The wirelength of a net is estimated by the half-perimeter of the bounding
box of its pins — the standard estimator for placement.  The total objective
is the net-weight-weighted sum over all nets.

Three access patterns are provided:

* :func:`full_hpwl` — vectorised full evaluation over all nets at once, used
  when a solution arrives over the (simulated) network or when caches need a
  rebuild;
* :class:`WirelengthState` — an incremental cache of per-net bounding boxes
  (``x_min/x_max/y_min/y_max`` plus each edge's *next-inner* value, where the
  edge would sit if one pin on it left) that evaluates the *delta* of a
  candidate swap exactly with O(affected nets) arithmetic and no member
  re-gather;
* :meth:`WirelengthState.deltas_for_swaps` — the batched kernel: it scores an
  entire candidate neighbourhood in a handful of NumPy operations (one flat
  CSR cell→net expansion, no per-trial ``union1d``, no segment reduce).

The tabu-search inner loop only ever uses deltas, so this module is the
hottest code path of the whole reproduction: every CLW trial swap lands here.
"""

from __future__ import annotations

import logging
from typing import Iterable, Tuple

import numpy as np

from .. import accel
from .netlist import csr_lists
from .solution import Placement

__all__ = [
    "BBOX_ROWS",
    "full_hpwl",
    "net_hpwl",
    "net_bboxes",
    "WirelengthState",
]

logger = logging.getLogger(__name__)


def net_hpwl(placement: Placement, net_index: int) -> float:
    """HPWL of a single (unweighted) net under ``placement``."""
    netlist = placement.netlist
    layout = placement.layout
    members = netlist.net_members(net_index)
    slots = placement.cell_to_slot[members]
    xs = layout.slot_x[slots]
    ys = layout.slot_y[slots]
    return float(xs.max() - xs.min() + ys.max() - ys.min())


def full_hpwl(placement: Placement) -> Tuple[np.ndarray, float]:
    """Compute HPWL for every net and the weighted total.

    Returns
    -------
    per_net:
        Unweighted HPWL of each net (length ``num_nets``).
    total:
        Net-weight-weighted sum of the per-net values.
    """
    netlist = placement.netlist
    layout = placement.layout
    slots = placement.cell_to_slot[netlist.flat_members]
    xs = layout.slot_x[slots]
    ys = layout.slot_y[slots]
    ptr = netlist.net_ptr
    num_nets = netlist.num_nets
    per_net = np.empty(num_nets, dtype=np.float64)
    # np.maximum.reduceat / minimum.reduceat handle the CSR segments without a
    # Python loop over nets.
    if num_nets:
        starts = ptr[:-1]
        x_max = np.maximum.reduceat(xs, starts)
        x_min = np.minimum.reduceat(xs, starts)
        y_max = np.maximum.reduceat(ys, starts)
        y_min = np.minimum.reduceat(ys, starts)
        per_net[:] = (x_max - x_min) + (y_max - y_min)
    total = float(np.dot(per_net, netlist.net_weights)) if num_nets else 0.0
    return per_net, total


#: Rows of a :func:`net_bboxes` block: the layout of the
#: :class:`WirelengthState` cache.
BBOX_ROWS = (
    "x_min", "x_max", "y_min", "y_max",
    "inner_x_min", "inner_x_max", "inner_y_min", "inner_y_max",
)


def net_bboxes(placement: Placement, nets: np.ndarray | None = None) -> np.ndarray:
    """Bounding boxes (and next-inner edges) of ``nets`` in one pass.

    Returns an ``(8, len(nets))`` block (all nets when ``nets`` is ``None``)
    whose rows are :data:`BBOX_ROWS`: ``x_min, x_max, y_min, y_max`` and
    then each edge's *next-inner* value — where the edge would sit if one
    pin on it left: the runner-up coordinate counted with multiplicity (the
    second-smallest x for ``x_min``), so an edge two pins sit on is its own
    next-inner value.  A net has a driver and at least one sink, so every
    next-inner value is a real pin coordinate.  They are what make a trial
    move exact in O(1): the pin at ``frm`` going to ``to`` leaves a new
    minimum of ``min(inner if frm == edge else edge, to)``.

    Pins are scanned rank by rank, with the nets in descending-degree order:
    the nets with more than ``r`` pins are then a prefix, so every rank is one
    contiguous slice and the running edge/runner-up updates are plain
    elementwise ``minimum``/``maximum`` calls — no segment reduce.
    """
    netlist = placement.netlist
    layout = placement.layout
    ptr = netlist.net_ptr
    if nets is None:
        starts = ptr[:-1]
        degrees = netlist.net_degrees
    else:
        nets = np.asarray(nets, dtype=np.int64)
        starts = ptr[nets]
        degrees = ptr[nets + 1] - starts
    num = int(degrees.size)
    if num == 0:
        return np.zeros((8, 0), dtype=np.float64)
    order = np.argsort(-degrees, kind="stable")
    ranked_starts = starts[order]
    # widths[r]: how many nets have more than r pins (widths[0] = widths[1])
    widths = np.cumsum(np.bincount(degrees)[::-1])[::-1][1:].tolist()
    pins = netlist.flat_members[
        np.concatenate([ranked_starts[:width] + r for r, width in enumerate(widths)])
    ]
    slots = placement.cell_to_slot[pins]
    # [x, -x, y, -y]: a maximum is the negated minimum of the negated
    # coordinates (negation is exact), so minimum passes serve all four edges
    coords = np.empty((4, pins.size), dtype=np.float64)
    np.take(layout.slot_x, slots, out=coords[0])
    np.take(layout.slot_y, slots, out=coords[2])
    np.negative(coords[0::2], out=coords[1::2])
    # BBOX_ROWS with every maximum negated: the edges, then their runners-up
    ranked = np.empty((8, num), dtype=np.float64)
    edges, inner = ranked[:4], ranked[4:]
    np.minimum(coords[:, :num], coords[:, num : 2 * num], out=edges)
    np.maximum(coords[:, :num], coords[:, num : 2 * num], out=inner)
    offset = 2 * num
    for width in widths[2:]:
        pin = coords[:, offset : offset + width]
        offset += width
        edges_w, inner_w = edges[:, :width], inner[:, :width]
        np.minimum(inner_w, np.maximum(edges_w, pin), out=inner_w)
        np.minimum(edges_w, pin, out=edges_w)
    out = np.empty((8, num), dtype=np.float64)
    out[:, order] = ranked
    np.negative(out[1::2], out=out[1::2])
    return out


class WirelengthState:
    """Incremental HPWL cache bound to one :class:`Placement`.

    The cache holds, for every net, the bounding box of its pins and each
    edge's next-inner value (see :func:`net_bboxes`), plus the unweighted
    HPWL and the weighted total.  ``deltas_for_swaps`` answers, for a whole
    batch of pairs, "how would the total change if cells *a* and *b*
    exchanged slots?" without mutating anything; ``commit_swap`` must be
    called *after* the placement has actually been swapped to keep the cache
    in sync.
    """

    #: Largest ``num_cells * num_nets`` for which the dense boolean
    #: cell-net incidence matrix is built (64 MB of bools at the cap); the
    #: batched kernel uses it to answer "is the swap partner also on this
    #: net?" with one gather.  Beyond the budget the kernel switches to the
    #: sparse CSR sorted-key path (O(pins) memory, binary-search lookups).
    INCIDENCE_BUDGET = 64_000_000

    #: Largest pin count for which the scalar commit path's Python list
    #: caches (net members, per-cell nets, coordinates) may be built; bigger
    #: instances route committed swaps through the vectorised
    #: :func:`net_bboxes`, keeping commit memory bounded by the netlist's
    #: CSR arrays.
    SCALAR_COMMIT_MAX_PINS = 1 << 20

    #: Shared-net detection modes already announced via the module logger —
    #: the selection is logged once per mode per process, not per instance.
    _logged_modes: set = set()

    def __init__(
        self,
        placement: Placement,
        *,
        incidence: str | None = None,
    ) -> None:
        self._placement = placement
        self._netlist = placement.netlist
        self._layout = placement.layout
        # Static structure for the scalar commit path (plain Python lists:
        # no per-item ndarray boxing, so the per-commit net scan beats
        # small-array NumPy several times over).  Built lazily on the first
        # committed swap — batch-only consumers (CLW trial scoring) never
        # pay the O(pins) list construction or hold the boxed copies.
        self._commit_lists: tuple | None = None
        num_cells = placement.num_cells
        num_nets = self._netlist.num_nets
        mode = "auto" if incidence is None else incidence
        if mode not in ("auto", "dense", "csr"):
            raise ValueError(
                f"incidence mode must be 'auto', 'dense' or 'csr', got {mode!r}"
            )
        if mode == "auto":
            mode = "dense" if 0 < num_cells * num_nets <= self.INCIDENCE_BUDGET else "csr"
        self._incidence_mode = mode
        self._incidence: np.ndarray | None = None
        self._csr_keys: np.ndarray | None = None
        self._csr_bits: np.ndarray | None = None
        flat_nets, counts = self._netlist.nets_of_cells_flat(
            np.arange(num_cells, dtype=np.int64)
        )
        pin_cells = np.repeat(np.arange(num_cells, dtype=np.int64), counts)
        if mode == "dense":
            incidence_matrix = np.zeros((num_cells, num_nets), dtype=bool)
            incidence_matrix[pin_cells, flat_nets] = True
            self._incidence = incidence_matrix
        else:
            # Per-cell net lists are sorted ascending (nets are appended in
            # index order when the netlist builds its incidence), so the
            # concatenated `cell * num_nets + net` keys are globally sorted
            # and one binary search answers the shared-net test in
            # O(pins) memory instead of O(cells * nets).  Each cell also
            # gets a 64-bit net signature (bit ``net & 63`` per net), so
            # only the few items whose partner's signature has the net's
            # bit need the search.
            self._csr_keys = pin_cells * np.int64(num_nets) + flat_nets
            self._csr_bits = np.zeros(num_cells, dtype=np.uint64)
            np.bitwise_or.at(
                self._csr_bits,
                pin_cells,
                np.left_shift(np.uint64(1), (flat_nets & 63).astype(np.uint64)),
            )
        if mode not in WirelengthState._logged_modes:
            WirelengthState._logged_modes.add(mode)
            logger.info(
                "wirelength shared-net detection: %s path selected "
                "(first instance: %d cells x %d nets)",
                mode, num_cells, num_nets,
            )
        self.rebuild()

    @property
    def incidence_mode(self) -> str:
        """Active shared-net detection path: ``"dense"`` or ``"csr"``.

        Benchmarks assert on this so they provably measure the path they
        meant to (the dense→CSR switch used to be silent).
        """
        return self._incidence_mode

    # ------------------------------------------------------------------ #
    @property
    def total(self) -> float:
        """Current weighted total HPWL."""
        return self._total

    @property
    def per_net(self) -> np.ndarray:
        """Current unweighted per-net HPWL values (read-only view)."""
        view = self._per_net.view()
        view.flags.writeable = False
        return view

    def _bind(self, bbox: np.ndarray) -> None:
        """Adopt an ``(8, num_nets)`` :func:`net_bboxes` block as the cache."""
        self._bbox = bbox
        (
            self._x_min, self._x_max, self._y_min, self._y_max,
            self._inner_x_min, self._inner_x_max, self._inner_y_min, self._inner_y_max,
        ) = bbox

    def rebuild(self) -> None:
        """Recompute the cache from scratch (used after bulk solution changes)."""
        self._bind(net_bboxes(self._placement))
        self._per_net = (self._x_max - self._x_min) + (self._y_max - self._y_min)
        weights = self._netlist.net_weights
        self._total = float(np.dot(self._per_net, weights)) if self._per_net.size else 0.0

    def _hpwl_arrays(self) -> accel.HpwlArrays:
        """The live cache arrays as an :class:`~repro.accel.HpwlArrays` pack.

        Built on every call, so rebinds by ``rebuild``/``restore_state`` are
        always picked up.
        """
        return accel.HpwlArrays(
            num_nets=self._netlist.num_nets,
            incidence=self._incidence,
            csr_keys=self._csr_keys,
            csr_bits=self._csr_bits,
            x_min=self._x_min, x_max=self._x_max,
            y_min=self._y_min, y_max=self._y_max,
            inner_x_min=self._inner_x_min, inner_x_max=self._inner_x_max,
            inner_y_min=self._inner_y_min, inner_y_max=self._inner_y_max,
            per_net=self._per_net,
            net_weights=self._netlist.net_weights,
        )

    # ------------------------------------------------------------------ #
    # snapshot / restore (used by the search loop to try candidates cheaply)
    # ------------------------------------------------------------------ #
    def save_state(self) -> tuple:
        """Copy of the full cache — ``per_net``, the total, then the eight
        :data:`BBOX_ROWS` — restorable via :meth:`restore_state`."""
        return (self._per_net.copy(), self._total, *self._bbox.copy())

    def restore_state(self, state: tuple) -> None:
        """Restore a cache snapshot (the placement must be restored separately)."""
        per_net, total, *rows = state
        self._per_net = per_net.copy()
        self._total = total
        self._bind(np.array(rows))

    # ------------------------------------------------------------------ #
    # batched trial evaluation — the hot kernel
    # ------------------------------------------------------------------ #
    def deltas_for_swaps(self, cells_a, cells_b) -> np.ndarray:
        """Weighted-HPWL change of every candidate swap ``(a_i, b_i)``.

        Both arguments are integer arrays of equal length; the result is a
        float array of per-pair deltas (negative = improvement).  Every pair
        is evaluated independently against the *current* placement (a pair's
        delta is bit-identical whether it is scored alone or in a larger
        batch), and the whole batch is computed with vectorised NumPy:

        1. expand both endpoints of every pair to flat ``(pair, net)`` items
           via the CSR cell→net incidence;
        2. drop items of nets containing *both* endpoints (a swap permutes
           their pins, so their bbox is unchanged) — one dense incidence
           gather when the matrix fits :attr:`INCIDENCE_BUDGET`, otherwise a
           binary search of the sorted CSR incidence keys (no per-pair
           ``union1d``, no O(cells x nets) memory);
        3. update each item's four bbox edges exactly in O(1) from the
           cached edges and their next-inner values.

        Step 1 (the CSR expansion) runs here; steps 2–3 are
        :func:`repro.accel.hpwl_batch_deltas`, pinned bit-identical against
        its frozen copy, ``wirelength_reference`` in
        ``tests/oracles/kernels.py``.  Nets average ~3 pins, so a moved pin
        is usually the only pin on some edge of its net's bbox (66% of a
        256-pair batch's items on c532 and on big10k): per-edge pin counts
        would send those items to a re-reduction of their net's members,
        where the next-inner values answer them in O(1).
        """
        a = np.atleast_1d(np.asarray(cells_a, dtype=np.int64))
        b = np.atleast_1d(np.asarray(cells_b, dtype=np.int64))
        if a.shape != b.shape:
            raise ValueError(f"cells_a and cells_b must match, got {a.shape} vs {b.shape}")
        num_pairs = int(a.size)
        out = np.zeros(num_pairs, dtype=np.float64)
        if num_pairs == 0 or self._netlist.num_nets == 0:
            return out

        # --- step 1: flat (endpoint, net) items ---------------------------- #
        # The endpoints interleave as [a0, b0, a1, b1, ...]: an item's pair is
        # ``end >> 1`` and its swap partner ``end ^ 1``, and each pair's items
        # stay in a's-nets-then-b's-nets order, the order the per-pair sums
        # below are folded in.
        ends = np.empty(2 * num_pairs, dtype=np.int64)
        ends[0::2] = a
        ends[1::2] = b
        net, degrees = self._netlist.nets_of_cells_flat(ends)
        if net.size == 0:
            return out
        end = np.repeat(np.arange(2 * num_pairs, dtype=np.int64), degrees)
        partner = end ^ 1
        end_slots = self._placement.cell_to_slot[ends]
        end_x = self._layout.slot_x[end_slots]
        end_y = self._layout.slot_y[end_slots]

        # --- steps 2-3: the batch kernel ----------------------------------- #
        # An item is inactive when the pair is a self-swap or when the swap
        # partner sits on the same net (the swap permutes that net's pins).
        # Inactive items are *not* filtered out — they flow through the O(1)
        # edge updates and are zeroed in the final per-item reduction, which
        # is far cheaper than re-gathering six arrays through a boolean mask
        # and needs no sort to find the duplicates.
        pair = end >> 1
        # called through the module so that a patched attribute (perfbench's
        # layer tracer) sees every call
        return accel.hpwl_batch_deltas(
            self._hpwl_arrays(),
            num_pairs=num_pairs,
            pair=pair,
            net=net,
            other=ends[partner],
            from_x=end_x[end],
            from_y=end_y[end],
            to_x=end_x[partner],
            to_y=end_y[partner],
            active=(a != b)[pair],
        )

    # ------------------------------------------------------------------ #
    # committed updates
    # ------------------------------------------------------------------ #
    def _scalar_commit_lists(self) -> tuple:
        """Python-list caches backing the scalar commit path (built lazily)."""
        if self._commit_lists is None:
            netlist = self._netlist
            self._commit_lists = (
                self._layout.slot_x.tolist(),
                self._layout.slot_y.tolist(),
                csr_lists(netlist.flat_members, netlist.net_ptr),
                csr_lists(netlist.cell_net_flat, netlist.cell_net_ptr),
                netlist.net_weights.tolist(),
            )
        return self._commit_lists

    def commit_swap(self, cell_a: int, cell_b: int) -> None:
        """Update the cache after ``placement.swap_cells(cell_a, cell_b)``.

        The placement must already reflect the swap.  Each affected net's
        bbox, next-inner edges and HPWL are recomputed *in place* with a
        scalar scan over its (few) member pins — the nets of the paper
        circuits average ~3 pins, where one Python pass beats the dispatch
        overhead of a vectorised :func:`net_bboxes` several times over.  Nets
        containing both cells are skipped: the swap permutes their pins.
        Instances beyond :attr:`SCALAR_COMMIT_MAX_PINS` never build the
        boxed list caches; their commits go through the vectorised
        :meth:`recompute_nets` instead (same result, bounded memory).
        """
        if cell_a == cell_b:
            return
        if self._netlist.flat_members.size > self.SCALAR_COMMIT_MAX_PINS:
            nets_a_arr = self._netlist.nets_of_cell(cell_a)
            nets_b_arr = self._netlist.nets_of_cell(cell_b)
            self.recompute_nets(np.setxor1d(nets_a_arr, nets_b_arr))
            return
        _slot_x, _slot_y, _members, cell_nets_list, _weights = self._scalar_commit_lists()
        nets_a = cell_nets_list[cell_a]
        nets_b = cell_nets_list[cell_b]
        if nets_a and nets_b:
            in_b = set(nets_b)
            affected = [n for n in nets_a if n not in in_b]
            in_a = set(nets_a)
            affected += [n for n in nets_b if n not in in_a]
        else:
            affected = nets_a + nets_b
        if not affected:
            return
        cts = self._placement.cell_to_slot
        sx = _slot_x
        sy = _slot_y
        members_list = _members
        weights = _weights
        per_net = self._per_net
        total_delta = 0.0
        for net in affected:
            # a net has at least two pins: they seed each edge and the
            # runner-up behind it (its next-inner value)
            members = members_list[net]
            slot = cts[members[0]]
            x0 = sx[slot]
            y0 = sy[slot]
            slot = cts[members[1]]
            x1 = sx[slot]
            y1 = sy[slot]
            if x0 <= x1:
                x_min = x_max_in = x0
                x_max = x_min_in = x1
            else:
                x_min = x_max_in = x1
                x_max = x_min_in = x0
            if y0 <= y1:
                y_min = y_max_in = y0
                y_max = y_min_in = y1
            else:
                y_min = y_max_in = y1
                y_max = y_min_in = y0
            for m in members[2:]:
                slot = cts[m]
                x = sx[slot]
                y = sy[slot]
                if x < x_min:
                    x_min_in = x_min
                    x_min = x
                elif x < x_min_in:
                    x_min_in = x
                if x > x_max:
                    x_max_in = x_max
                    x_max = x
                elif x > x_max_in:
                    x_max_in = x
                if y < y_min:
                    y_min_in = y_min
                    y_min = y
                elif y < y_min_in:
                    y_min_in = y
                if y > y_max:
                    y_max_in = y_max
                    y_max = y
                elif y > y_max_in:
                    y_max_in = y
            new_hpwl = (x_max - x_min) + (y_max - y_min)
            total_delta += weights[net] * (new_hpwl - per_net[net])
            per_net[net] = new_hpwl
            self._x_min[net] = x_min
            self._x_max[net] = x_max
            self._y_min[net] = y_min
            self._y_max[net] = y_max
            self._inner_x_min[net] = x_min_in
            self._inner_x_max[net] = x_max_in
            self._inner_y_min[net] = y_min_in
            self._inner_y_max[net] = y_max_in
        self._total += float(total_delta)

    def recompute_cells(self, cells: np.ndarray) -> None:
        """Refresh every net touching any of ``cells`` from the placement.

        One vectorised :func:`net_bboxes` pass over the union of incident
        nets (:meth:`recompute_nets` deduplicates them) — the bulk path
        :meth:`~repro.placement.cost.CostEvaluator.apply_swaps` uses when
        committing a whole received swap sequence at once.
        """
        cells = np.asarray(cells, dtype=np.int64)
        if cells.size == 0:
            return
        nets, _counts = self._netlist.nets_of_cells_flat(cells)
        self.recompute_nets(nets)

    def verify_consistency(self, *, atol: float = 1e-6) -> None:
        """Check the bbox/next-inner caches against a fresh recompute.

        The totals alone cannot reveal a stale next-inner value (it only
        shows in a future trial's delta), so this compares every cached
        array.  Raises ``ValueError`` on divergence.
        """
        fresh = net_bboxes(self._placement)
        for name, have, want in zip(BBOX_ROWS, self._bbox, fresh):
            if not np.allclose(have, want, atol=atol):
                bad = int(np.flatnonzero(~np.isclose(have, want, atol=atol))[0])
                raise ValueError(
                    f"wirelength bbox cache drift in {name} at net {bad}: "
                    f"cached={have[bad]}, exact={want[bad]}"
                )

    def recompute_nets(self, nets: Iterable[int]) -> None:
        """Refresh specific nets from the placement's current state.

        One vectorised :func:`net_bboxes` pass over all affected nets —
        committed swaps are rare relative to trials, so exact recomputation
        here keeps the trial path simple.
        """
        nets = np.unique(np.asarray(tuple(nets) if not isinstance(nets, np.ndarray) else nets, dtype=np.int64))
        if nets.size == 0:
            return
        bbox = net_bboxes(self._placement, nets)
        x_min, x_max, y_min, y_max = bbox[:4]
        new_per = (x_max - x_min) + (y_max - y_min)
        weights = self._netlist.net_weights[nets]
        self._total += float(np.dot(weights, new_per - self._per_net[nets]))
        self._per_net[nets] = new_per
        self._bbox[:, nets] = bbox
