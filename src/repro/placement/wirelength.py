"""Wirelength objective: weighted half-perimeter wirelength (HPWL).

The wirelength of a net is estimated by the half-perimeter of the bounding
box of its pins — the standard estimator for placement.  The total objective
is the net-weight-weighted sum over all nets.

Three access patterns are provided:

* :func:`full_hpwl` — vectorised full evaluation over all nets at once, used
  when a solution arrives over the (simulated) network or when caches need a
  rebuild;
* :class:`WirelengthState` — an incremental cache of per-net bounding boxes
  (``x_min/x_max/y_min/y_max`` plus the number of members sitting on each
  bbox edge) that can evaluate the *delta* of a candidate swap with O(affected
  nets) arithmetic and no member re-gather in the common case;
* :meth:`WirelengthState.deltas_for_swaps` — the batched kernel: it scores an
  entire candidate neighbourhood in a handful of NumPy operations (flat CSR
  cell→net expansion, no per-trial ``union1d``), falling back to a vectorised
  segment reduce only for the rare trials where a moved cell is the sole
  support of a bbox edge.

The tabu-search inner loop only ever uses deltas, so this module is the
hottest code path of the whole reproduction: every CLW trial swap lands here.
"""

from __future__ import annotations

import logging
from typing import Iterable, Tuple

import numpy as np

from .. import accel
from .solution import Placement

__all__ = [
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


def net_bboxes(
    placement: Placement, nets: np.ndarray | None = None
) -> Tuple[np.ndarray, ...]:
    """Bounding boxes (and edge multiplicities) of ``nets`` in one pass.

    Returns eight arrays aligned with ``nets`` (or with all nets when ``nets``
    is ``None``): ``x_min, x_max, y_min, y_max`` and the number of member
    pins sitting exactly on each of the four bbox edges.  The multiplicity
    counts are what make O(1) incremental updates possible: a pin may leave a
    bbox edge without shrinking the box whenever other pins still support it.
    """
    netlist = placement.netlist
    layout = placement.layout
    if nets is None:
        members = netlist.flat_members
        counts = netlist.net_degrees
    else:
        members, counts = netlist.net_members_of(nets)
    num = int(counts.size)
    if num == 0:
        zero_f = np.zeros(0, dtype=np.float64)
        zero_i = np.zeros(0, dtype=np.int64)
        return zero_f, zero_f.copy(), zero_f.copy(), zero_f.copy(), zero_i, zero_i.copy(), zero_i.copy(), zero_i.copy()
    slots = placement.cell_to_slot[members]
    xs = layout.slot_x[slots]
    ys = layout.slot_y[slots]
    starts = np.zeros(num, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    x_min = np.minimum.reduceat(xs, starts)
    x_max = np.maximum.reduceat(xs, starts)
    y_min = np.minimum.reduceat(ys, starts)
    y_max = np.maximum.reduceat(ys, starts)
    n_x_min = np.add.reduceat((xs == np.repeat(x_min, counts)).astype(np.int64), starts)
    n_x_max = np.add.reduceat((xs == np.repeat(x_max, counts)).astype(np.int64), starts)
    n_y_min = np.add.reduceat((ys == np.repeat(y_min, counts)).astype(np.int64), starts)
    n_y_max = np.add.reduceat((ys == np.repeat(y_max, counts)).astype(np.int64), starts)
    return x_min, x_max, y_min, y_max, n_x_min, n_x_max, n_y_min, n_y_max


class WirelengthState:
    """Incremental HPWL cache bound to one :class:`Placement`.

    The cache holds, for every net, the bounding box of its pins and the
    number of pins on each bbox edge, plus the unweighted HPWL and the
    weighted total.  ``delta_for_swap`` / ``deltas_for_swaps`` answer "how
    would the total change if cells *a* and *b* exchanged slots?" without
    mutating anything; ``commit_swap`` must be called *after* the placement
    has actually been swapped to keep the cache in sync.
    """

    #: Largest ``num_cells * num_nets`` for which the dense boolean
    #: cell-net incidence matrix is built (64 MB of bools at the cap); the
    #: batched kernel uses it to answer "is the swap partner also on this
    #: net?" with one gather.  Beyond the budget the kernel switches to the
    #: sparse CSR sorted-key path (O(pins) memory, binary-search lookups).
    INCIDENCE_BUDGET = 64_000_000

    #: Largest pin count for which the scalar commit path's Python list
    #: caches (net members, per-cell nets, coordinates) may be built; bigger
    #: instances route committed swaps through the vectorised segment
    #: reduce, keeping commit memory bounded by the netlist's CSR arrays.
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
        flat_nets, counts = self._netlist.nets_of_cells_flat(
            np.arange(num_cells, dtype=np.int64)
        )
        if mode == "dense":
            incidence_matrix = np.zeros((num_cells, num_nets), dtype=bool)
            incidence_matrix[
                np.repeat(np.arange(num_cells, dtype=np.int64), counts), flat_nets
            ] = True
            self._incidence = incidence_matrix
        else:
            # Per-cell net lists are sorted ascending (nets are appended in
            # index order when the netlist builds its incidence), so the
            # concatenated `cell * num_nets + net` keys are globally sorted
            # and one binary search answers the shared-net test in
            # O(pins) memory instead of O(cells * nets).
            self._csr_keys = (
                np.repeat(np.arange(num_cells, dtype=np.int64), counts)
                * np.int64(num_nets)
                + flat_nets
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

    def rebuild(self) -> None:
        """Recompute the cache from scratch (used after bulk solution changes)."""
        (
            self._x_min,
            self._x_max,
            self._y_min,
            self._y_max,
            self._n_x_min,
            self._n_x_max,
            self._n_y_min,
            self._n_y_max,
        ) = net_bboxes(self._placement)
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
            x_min=self._x_min, x_max=self._x_max,
            y_min=self._y_min, y_max=self._y_max,
            n_x_min=self._n_x_min, n_x_max=self._n_x_max,
            n_y_min=self._n_y_min, n_y_max=self._n_y_max,
            per_net=self._per_net,
            net_weights=self._netlist.net_weights,
        )

    # ------------------------------------------------------------------ #
    # snapshot / restore (used by the search loop to try candidates cheaply)
    # ------------------------------------------------------------------ #
    def save_state(self) -> tuple:
        """Copy of the full cache, restorable via :meth:`restore_state`."""
        return (
            self._per_net.copy(),
            self._total,
            self._x_min.copy(),
            self._x_max.copy(),
            self._y_min.copy(),
            self._y_max.copy(),
            self._n_x_min.copy(),
            self._n_x_max.copy(),
            self._n_y_min.copy(),
            self._n_y_max.copy(),
        )

    def restore_state(self, state: tuple) -> None:
        """Restore a cache snapshot (the placement must be restored separately)."""
        (per_net, total, x_min, x_max, y_min, y_max, n_x_min, n_x_max, n_y_min, n_y_max) = state
        self._per_net = per_net.copy()
        self._total = total
        self._x_min = x_min.copy()
        self._x_max = x_max.copy()
        self._y_min = y_min.copy()
        self._y_max = y_max.copy()
        self._n_x_min = n_x_min.copy()
        self._n_x_max = n_x_max.copy()
        self._n_y_min = n_y_min.copy()
        self._n_y_max = n_y_max.copy()

    # ------------------------------------------------------------------ #
    # batched trial evaluation — the hot kernel
    # ------------------------------------------------------------------ #
    def deltas_for_swaps(self, cells_a, cells_b) -> np.ndarray:
        """Weighted-HPWL change of every candidate swap ``(a_i, b_i)``.

        Both arguments are integer arrays of equal length; the result is a
        float array of per-pair deltas (negative = improvement).  Every pair
        is evaluated independently against the *current* placement, exactly
        like repeated calls to :meth:`delta_for_swap`, but the whole batch is
        computed with vectorised NumPy:

        1. expand both endpoints of every pair to flat ``(pair, net)`` items
           via the CSR cell→net incidence;
        2. drop items of nets containing *both* endpoints (a swap permutes
           their pins, so their bbox is unchanged) — one dense incidence
           gather when the matrix fits :attr:`INCIDENCE_BUDGET`, otherwise a
           binary search of the sorted CSR incidence keys (no per-pair
           ``union1d``, no O(cells x nets) memory);
        3. update each item's bbox edge in O(1) using the cached edge
           multiplicities;
        4. re-reduce only the items where the moved pin was the sole support
           of an edge it leaves (a single ``reduceat`` over those segments).

        Step 1 (the CSR expansion) runs here; steps 2–4 are
        :func:`repro.accel.hpwl_batch_deltas`, pinned bit-identical against
        its frozen copy, ``wirelength_reference`` in
        ``tests/oracles/kernels.py``.  The segment-reduce fallback of step 4
        is rare by construction.
        """
        a = np.atleast_1d(np.asarray(cells_a, dtype=np.int64))
        b = np.atleast_1d(np.asarray(cells_b, dtype=np.int64))
        if a.shape != b.shape:
            raise ValueError(f"cells_a and cells_b must match, got {a.shape} vs {b.shape}")
        num_pairs = int(a.size)
        out = np.zeros(num_pairs, dtype=np.float64)
        if num_pairs == 0 or self._netlist.num_nets == 0:
            return out

        netlist = self._netlist
        cts = self._placement.cell_to_slot
        slot_x = self._layout.slot_x
        slot_y = self._layout.slot_y
        ax = slot_x[cts[a]]
        ay = slot_y[cts[a]]
        bx = slot_x[cts[b]]
        by = slot_y[cts[b]]

        # --- step 1: flat (pair, net) items for both endpoints ------------- #
        nets_a, deg_a = netlist.nets_of_cells_flat(a)
        nets_b, deg_b = netlist.nets_of_cells_flat(b)
        pair_ids = np.arange(num_pairs, dtype=np.int64)
        pair = np.concatenate([np.repeat(pair_ids, deg_a), np.repeat(pair_ids, deg_b)])
        net = np.concatenate([nets_a, nets_b])
        moved = np.concatenate([np.repeat(a, deg_a), np.repeat(b, deg_b)])
        from_x = np.concatenate([np.repeat(ax, deg_a), np.repeat(bx, deg_b)])
        from_y = np.concatenate([np.repeat(ay, deg_a), np.repeat(by, deg_b)])
        to_x = np.concatenate([np.repeat(bx, deg_a), np.repeat(ax, deg_b)])
        to_y = np.concatenate([np.repeat(by, deg_a), np.repeat(ay, deg_b)])
        if net.size == 0:
            return out

        # --- steps 2-4: the batch kernel ----------------------------------- #
        # An item is inactive when the pair is a self-swap or when the swap
        # partner sits on the same net (the swap permutes that net's pins).
        # Inactive items are *not* filtered out — they flow through the O(1)
        # edge updates (where a self-swap's from == to makes the delta vanish
        # naturally) and are zeroed in the final per-item reduction, which is
        # far cheaper than re-gathering seven arrays through a boolean mask
        # and needs no sort to find the duplicates.
        active = (a != b)[pair]
        other = np.concatenate([np.repeat(b, deg_a), np.repeat(a, deg_b)])
        # called through the module so that a patched attribute (perfbench's
        # layer tracer) sees every call
        return accel.hpwl_batch_deltas(
            self._hpwl_arrays(),
            num_pairs=num_pairs,
            pair=pair,
            net=net,
            other=other,
            moved=moved,
            from_x=from_x,
            from_y=from_y,
            to_x=to_x,
            to_y=to_y,
            active=active,
            cts=cts,
            slot_x=slot_x,
            slot_y=slot_y,
            gather_members=netlist.net_members_of,
        )

    def delta_for_swap(self, cell_a: int, cell_b: int) -> float:
        """Weighted-HPWL change if ``cell_a`` and ``cell_b`` swapped slots.

        Negative values mean the swap *improves* (shortens) the wirelength.
        A single-pair call into the batched kernel, so scalar and batched
        evaluation agree bit-for-bit.
        """
        if cell_a == cell_b:
            return 0.0
        return float(self.deltas_for_swaps(
            np.array([cell_a], dtype=np.int64), np.array([cell_b], dtype=np.int64)
        )[0])

    # ------------------------------------------------------------------ #
    # committed updates
    # ------------------------------------------------------------------ #
    def _scalar_commit_lists(self) -> tuple:
        """Python-list caches backing the scalar commit path (built lazily)."""
        if self._commit_lists is None:
            self._commit_lists = (
                self._layout.slot_x.tolist(),
                self._layout.slot_y.tolist(),
                [
                    self._netlist.net_members(i).tolist()
                    for i in range(self._netlist.num_nets)
                ],
                [
                    self._netlist.nets_of_cell(c).tolist()
                    for c in range(self._placement.num_cells)
                ],
                self._netlist.net_weights.tolist(),
            )
        return self._commit_lists

    def commit_swap(self, cell_a: int, cell_b: int) -> None:
        """Update the cache after ``placement.swap_cells(cell_a, cell_b)``.

        The placement must already reflect the swap.  Each affected net's
        bbox, edge multiplicities and HPWL are recomputed *in place* with a
        scalar scan over its (few) member pins — the nets of the paper
        circuits average ~3 pins, where one Python pass beats the dispatch
        overhead of a vectorised segment reduce several times over.  Nets
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
            members = members_list[net]
            slot = cts[members[0]]
            x = sx[slot]
            y = sy[slot]
            x_min = x_max = x
            y_min = y_max = y
            n_x_min = n_x_max = n_y_min = n_y_max = 1
            for m in members[1:]:
                slot = cts[m]
                x = sx[slot]
                y = sy[slot]
                if x < x_min:
                    x_min = x
                    n_x_min = 1
                elif x == x_min:
                    n_x_min += 1
                if x > x_max:
                    x_max = x
                    n_x_max = 1
                elif x == x_max:
                    n_x_max += 1
                if y < y_min:
                    y_min = y
                    n_y_min = 1
                elif y == y_min:
                    n_y_min += 1
                if y > y_max:
                    y_max = y
                    n_y_max = 1
                elif y == y_max:
                    n_y_max += 1
            new_hpwl = (x_max - x_min) + (y_max - y_min)
            total_delta += weights[net] * (new_hpwl - per_net[net])
            per_net[net] = new_hpwl
            self._x_min[net] = x_min
            self._x_max[net] = x_max
            self._y_min[net] = y_min
            self._y_max[net] = y_max
            self._n_x_min[net] = n_x_min
            self._n_x_max[net] = n_x_max
            self._n_y_min[net] = n_y_min
            self._n_y_max[net] = n_y_max
        self._total += float(total_delta)

    def recompute_cells(self, cells: np.ndarray) -> None:
        """Refresh every net touching any of ``cells`` from the placement.

        One vectorised segment reduce over the union of incident nets — the
        bulk path :meth:`~repro.placement.cost.CostEvaluator.apply_swaps` uses
        when committing a whole received swap sequence at once.
        """
        cells = np.asarray(cells, dtype=np.int64)
        if cells.size == 0:
            return
        nets, _counts = self._netlist.nets_of_cells_flat(cells)
        self.recompute_nets(np.unique(nets))

    def verify_consistency(self, *, atol: float = 1e-6) -> None:
        """Check the bbox/multiplicity caches against a fresh recompute.

        The totals alone cannot reveal a stale edge multiplicity (it only
        changes which fast/fallback branch a future trial takes), so this
        compares every cached array.  Raises ``ValueError`` on divergence.
        """
        fresh = net_bboxes(self._placement)
        cached = (
            self._x_min, self._x_max, self._y_min, self._y_max,
            self._n_x_min, self._n_x_max, self._n_y_min, self._n_y_max,
        )
        names = ("x_min", "x_max", "y_min", "y_max",
                 "n_x_min", "n_x_max", "n_y_min", "n_y_max")
        for name, have, want in zip(names, cached, fresh):
            if not np.allclose(have, want, atol=atol):
                bad = int(np.flatnonzero(~np.isclose(have, want, atol=atol))[0])
                raise ValueError(
                    f"wirelength bbox cache drift in {name} at net {bad}: "
                    f"cached={have[bad]}, exact={want[bad]}"
                )

    def recompute_nets(self, nets: Iterable[int]) -> None:
        """Refresh specific nets from the placement's current state.

        One vectorised segment reduce over all affected nets — committed swaps
        are rare relative to trials, so exact bbox + multiplicity recomputation
        here keeps the fast trial path simple.
        """
        nets = np.unique(np.asarray(tuple(nets) if not isinstance(nets, np.ndarray) else nets, dtype=np.int64))
        if nets.size == 0:
            return
        x_min, x_max, y_min, y_max, n_x_min, n_x_max, n_y_min, n_y_max = net_bboxes(
            self._placement, nets
        )
        new_per = (x_max - x_min) + (y_max - y_min)
        weights = self._netlist.net_weights[nets]
        self._total += float(np.dot(weights, new_per - self._per_net[nets]))
        self._per_net[nets] = new_per
        self._x_min[nets] = x_min
        self._x_max[nets] = x_max
        self._y_min[nets] = y_min
        self._y_max[nets] = y_max
        self._n_x_min[nets] = n_x_min
        self._n_x_max[nets] = n_x_max
        self._n_y_min[nets] = n_y_min
        self._n_y_max[nets] = n_y_max
