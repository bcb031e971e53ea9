"""Frozen reference kernels: the bit-identity oracles of the shipped kernels.

Each function is the direct implementation a shipped kernel replaced, kept
verbatim so the parity suites can pin the shipped kernel against it:

* :func:`wirelength_reference` — the batched HPWL swap-delta kernel of
  :meth:`~repro.placement.wirelength.WirelengthState.deltas_for_swaps`
  before it moved into :func:`repro.accel.hpwl_batch_deltas`, with the
  edge-multiplicity caches and segment-reduce fallback
  (:func:`fallback_bbox_reduce`) it had before the next-inner caches
  replaced them;
* :func:`batch_reference` — the whole placement batch,
  :meth:`~repro.placement.cost.CostEvaluator.evaluate_swaps_batch`, as it
  shipped before it became one pass: each objective's own
  ``deltas_for_swaps(cells_a, cells_b)`` body (the HPWL kernel included)
  and the per-goal fuzzy or weighted-sum aggregation, reading the
  evaluator's live caches;
* :func:`qap_reference` — the batched QAP swap-delta kernel of
  :meth:`~repro.problems.qap.evaluator.QAPEvaluator.deltas_for_swaps`
  before it moved into :func:`repro.accel.qap_swap_deltas`;
* :func:`sta_reference` — the scalar static timing analysis that
  :meth:`~repro.placement.timing.TimingAnalyzer.analyze` vectorised; it
  walks the cells in the Kahn order of the frozen graph builder
  (:mod:`oracles.timing_graph`).

``benchmarks/bench_kernels.py`` times the shipped kernels against the
delta oracles: the dispatch tax of calling through :mod:`repro.accel`, and
the one-pass batch against :func:`batch_reference`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.accel import shared_net_mask
from repro.placement.solution import Placement
from repro.placement.timing import TimingAnalyzer, TimingResult
from repro.placement.wirelength import WirelengthState
from repro.problems.qap.evaluator import QAPEvaluator

from .timing_graph import reference_topo_order

__all__ = [
    "reference_caches",
    "fallback_bbox_reduce",
    "wirelength_reference",
    "batch_reference",
    "qap_reference",
    "sta_reference",
]


def reference_caches(placement: Placement) -> Tuple[np.ndarray, ...]:
    """Bboxes, edge multiplicities and per-net HPWL of every net.

    A frozen copy of ``net_bboxes`` as it shipped with edge multiplicities,
    computed from the placement alone: returns ``x_min, x_max, y_min,
    y_max``, the number of member pins sitting exactly on each of those four
    edges, and the unweighted per-net HPWL.  :func:`wirelength_reference`
    reads these instead of the state's caches, so a stale cache shows as a
    mismatch.
    """
    netlist = placement.netlist
    layout = placement.layout
    members = netlist.flat_members
    counts = netlist.net_degrees
    slots = placement.cell_to_slot[members]
    xs = layout.slot_x[slots]
    ys = layout.slot_y[slots]
    starts = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    x_min = np.minimum.reduceat(xs, starts)
    x_max = np.maximum.reduceat(xs, starts)
    y_min = np.minimum.reduceat(ys, starts)
    y_max = np.maximum.reduceat(ys, starts)
    n_x_min = np.add.reduceat((xs == np.repeat(x_min, counts)).astype(np.int64), starts)
    n_x_max = np.add.reduceat((xs == np.repeat(x_max, counts)).astype(np.int64), starts)
    n_y_min = np.add.reduceat((ys == np.repeat(y_min, counts)).astype(np.int64), starts)
    n_y_max = np.add.reduceat((ys == np.repeat(y_max, counts)).astype(np.int64), starts)
    per_net = (x_max - x_min) + (y_max - y_min)
    return x_min, x_max, y_min, y_max, n_x_min, n_x_max, n_y_min, n_y_max, per_net


def fallback_bbox_reduce(
    members: np.ndarray,
    counts: np.ndarray,
    moved: np.ndarray,
    to_x: np.ndarray,
    to_y: np.ndarray,
    cts: np.ndarray,
    slot_x: np.ndarray,
    slot_y: np.ndarray,
):
    """Exact bboxes of fallback segments with one pin hypothetically moved.

    For each segment ``s`` (one net of one trial swap), scan its ``counts[s]``
    members with the moved pin at ``(to_x[s], to_y[s])`` and every other pin
    at its placed coordinate; returns the four bbox edge arrays.  Masked
    substitution plus four ``reduceat`` passes.
    """
    moved_rep = np.repeat(moved, counts)
    mx = np.where(members == moved_rep, np.repeat(to_x, counts), slot_x[cts[members]])
    my = np.where(members == moved_rep, np.repeat(to_y, counts), slot_y[cts[members]])
    starts = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    return (
        np.minimum.reduceat(mx, starts),
        np.maximum.reduceat(mx, starts),
        np.minimum.reduceat(my, starts),
        np.maximum.reduceat(my, starts),
    )


def _shrink_min(cur: np.ndarray, support: np.ndarray, frm: np.ndarray, to: np.ndarray):
    """Fast-path new minimum after one pin moves ``frm → to``.

    Returns ``(new_min, needs_fallback)``.  The fast path is exact except when
    the moving pin was the *only* support of the current minimum and it lands
    strictly inside the box — then the true new minimum lies somewhere among
    the remaining pins and a segment reduce is required.
    """
    new = np.minimum(cur, to)
    fallback = (frm == cur) & (support <= 1) & (to > cur)
    return new, fallback


def _shrink_max(cur: np.ndarray, support: np.ndarray, frm: np.ndarray, to: np.ndarray):
    """Fast-path new maximum after one pin moves ``frm → to`` (see _shrink_min)."""
    new = np.maximum(cur, to)
    fallback = (frm == cur) & (support <= 1) & (to < cur)
    return new, fallback


def wirelength_reference(
    state: WirelengthState,
    cells_a,
    cells_b,
    caches: Optional[Tuple[np.ndarray, ...]] = None,
) -> np.ndarray:
    """The direct NumPy HPWL batch kernel, frozen verbatim.

    The kernel body :meth:`WirelengthState.deltas_for_swaps` shipped before
    it called :func:`repro.accel.hpwl_batch_deltas`: the bit-identity oracle
    of the contract battery and the dispatch-tax baseline of
    ``benchmarks/bench_kernels.py``.  It takes only the state's static
    structure (netlist, layout, incidence) and reads the bboxes, edge
    multiplicities and per-net HPWL from ``caches``, a
    :func:`reference_caches` tuple of the state's placement, computed here
    when omitted — pass it to price several batches against one placement.
    Calls no kernel of :mod:`repro.accel` but the CSR shared-net test.
    """
    a = np.atleast_1d(np.asarray(cells_a, dtype=np.int64))
    b = np.atleast_1d(np.asarray(cells_b, dtype=np.int64))
    if a.shape != b.shape:
        raise ValueError(f"cells_a and cells_b must match, got {a.shape} vs {b.shape}")
    num_pairs = int(a.size)
    out = np.zeros(num_pairs, dtype=np.float64)
    netlist = state._netlist
    if num_pairs == 0 or netlist.num_nets == 0:
        return out

    if caches is None:
        caches = reference_caches(state._placement)
    x_min, x_max, y_min, y_max, n_x_min, n_x_max, n_y_min, n_y_max, per_net = caches
    cts = state._placement.cell_to_slot
    slot_x = state._layout.slot_x
    slot_y = state._layout.slot_y
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

    # --- step 2: neutralise self-swaps and shared nets ----------------- #
    active = (a != b)[pair]
    other = np.concatenate([np.repeat(b, deg_a), np.repeat(a, deg_b)])
    if state._incidence is not None:
        active &= ~state._incidence[other, net]
    else:  # sparse path: binary search of the sorted incidence keys
        keys = other * np.int64(netlist.num_nets) + net
        active &= ~shared_net_mask(state._csr_keys, keys)
    if not active.any():
        return out

    # --- step 3: O(1) bbox-edge updates from the cache ----------------- #
    new_x_min, fb_x_min = _shrink_min(x_min[net], n_x_min[net], from_x, to_x)
    new_x_max, fb_x_max = _shrink_max(x_max[net], n_x_max[net], from_x, to_x)
    new_y_min, fb_y_min = _shrink_min(y_min[net], n_y_min[net], from_y, to_y)
    new_y_max, fb_y_max = _shrink_max(y_max[net], n_y_max[net], from_y, to_y)

    # --- step 4: segment-reduce fallback for vacated edges ------------- #
    fallback = (fb_x_min | fb_x_max | fb_y_min | fb_y_max) & active
    if fallback.any():
        idx = np.flatnonzero(fallback)
        members, counts = netlist.net_members_of(net[idx])
        fb_x_lo, fb_x_hi, fb_y_lo, fb_y_hi = fallback_bbox_reduce(
            members, counts, moved[idx], to_x[idx], to_y[idx], cts, slot_x, slot_y
        )
        new_x_min[idx] = fb_x_lo
        new_x_max[idx] = fb_x_hi
        new_y_min[idx] = fb_y_lo
        new_y_max[idx] = fb_y_hi

    new_hpwl = (new_x_max - new_x_min) + (new_y_max - new_y_min)
    per_item = netlist.net_weights[net] * (new_hpwl - per_net[net])
    per_item *= active  # zero the contributions of masked items
    out[:] = np.bincount(pair, weights=per_item, minlength=num_pairs)
    return out


# ---------------------------------------------------------------------- #
# the placement batch before it became one pass
# ---------------------------------------------------------------------- #
def _reference_wirelength_deltas(state: WirelengthState, cells_a, cells_b) -> np.ndarray:
    """``WirelengthState.deltas_for_swaps`` with the HPWL kernel inlined."""
    a = np.atleast_1d(np.asarray(cells_a, dtype=np.int64))
    b = np.atleast_1d(np.asarray(cells_b, dtype=np.int64))
    num_pairs = int(a.size)
    out = np.zeros(num_pairs, dtype=np.float64)
    netlist = state._netlist
    if num_pairs == 0 or netlist.num_nets == 0:
        return out

    # step 1: flat (endpoint, net) items, endpoints interleaved a0, b0, ...
    ends = np.empty(2 * num_pairs, dtype=np.int64)
    ends[0::2] = a
    ends[1::2] = b
    net, degrees = netlist.nets_of_cells_flat(ends)
    if net.size == 0:
        return out
    end = np.repeat(np.arange(2 * num_pairs, dtype=np.int64), degrees)
    partner = end ^ 1
    end_slots = state._placement.cell_to_slot[ends]
    end_x = state._layout.slot_x[end_slots]
    end_y = state._layout.slot_y[end_slots]
    pair = end >> 1
    other = ends[partner]
    from_x = end_x[end]
    from_y = end_y[end]
    to_x = end_x[partner]
    to_y = end_y[partner]
    active = (a != b)[pair]

    # steps 2-3: the kernel as it shipped in repro.accel
    (
        x_min_all, x_max_all, y_min_all, y_max_all,
        inner_x_min, inner_x_max, inner_y_min, inner_y_max,
    ) = state._bbox
    if state._incidence is not None:
        active &= ~state._incidence[other, net]
    else:
        maybe = np.flatnonzero(
            (state._csr_bits[other] >> (net & 63).astype(np.uint64)) & np.uint64(1)
        )
        keys = other[maybe] * np.int64(netlist.num_nets) + net[maybe]
        active[maybe] &= ~shared_net_mask(state._csr_keys, keys)
    if not bool(active.any()):
        return out
    x_min = x_min_all[net]
    new_x_min = np.minimum(np.where(from_x == x_min, inner_x_min[net], x_min), to_x)
    x_max = x_max_all[net]
    new_x_max = np.maximum(np.where(from_x == x_max, inner_x_max[net], x_max), to_x)
    y_min = y_min_all[net]
    new_y_min = np.minimum(np.where(from_y == y_min, inner_y_min[net], y_min), to_y)
    y_max = y_max_all[net]
    new_y_max = np.maximum(np.where(from_y == y_max, inner_y_max[net], y_max), to_y)
    new_hpwl = (new_x_max - new_x_min) + (new_y_max - new_y_min)
    per_item = netlist.net_weights[net] * (new_hpwl - state._per_net[net])
    per_item *= active
    out[:] = np.bincount(pair, weights=per_item, minlength=num_pairs)
    return out


def _reference_timing_deltas(timing, cells_a, cells_b) -> np.ndarray:
    """``TimingState.deltas_for_swaps``: one ``(pairs × path)`` broadcast."""
    a = np.atleast_1d(np.asarray(cells_a, dtype=np.int64))
    b = np.atleast_1d(np.asarray(cells_b, dtype=np.int64))
    num_pairs = int(a.size)
    out = np.zeros(num_pairs, dtype=np.float64)
    path = timing._path_array
    if num_pairs == 0 or path.size < 2:
        return out
    touch = (timing._on_path[a] | timing._on_path[b]) & (a != b)
    if not touch.any():
        return out
    ai = a[touch]
    bi = b[touch]
    cts = timing._placement.cell_to_slot
    slot_x = timing._placement.layout.slot_x
    slot_y = timing._placement.layout.slot_y
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
    wpu = timing._analyzer.model.wire_delay_per_unit
    wire = wpu * np.sum(np.abs(np.diff(nx, axis=1)) + np.abs(np.diff(ny, axis=1)), axis=1)
    out[touch] = (timing._path_intrinsic + wire) - timing._cached_delay
    return out


def _reference_area_deltas(area, cells_a, cells_b) -> np.ndarray:
    """``AreaState.deltas_for_swaps``: the top-three-rows kernel."""
    a = np.atleast_1d(np.asarray(cells_a, dtype=np.int64))
    b = np.atleast_1d(np.asarray(cells_b, dtype=np.int64))
    num_pairs = int(a.size)
    out = np.zeros(num_pairs, dtype=np.float64)
    if num_pairs == 0:
        return out
    slot_row = area._layout.slot_row
    cts = area._placement.cell_to_slot
    rows_a = slot_row[cts[a]]
    rows_b = slot_row[cts[b]]
    active = (a != b) & (rows_a != rows_b)
    if not active.any():
        return out
    rw = area._row_widths
    cur_max = float(rw.max())
    k = min(3, rw.size)
    top = np.argpartition(rw, rw.size - k)[rw.size - k:]
    top = top[np.argsort(rw[top])[::-1]]
    top_rows = np.full(3, -1, dtype=np.int64)
    top_vals = np.full(3, -np.inf, dtype=np.float64)
    top_rows[:k] = top
    top_vals[:k] = rw[top]
    ra = rows_a[active]
    rb = rows_b[active]
    shift = area._widths[b[active]] - area._widths[a[active]]
    new_a = rw[ra] + shift
    new_b = rw[rb] - shift
    untouched = np.where(
        (top_rows[0] != ra) & (top_rows[0] != rb),
        top_vals[0],
        np.where((top_rows[1] != ra) & (top_rows[1] != rb), top_vals[1], top_vals[2]),
    )
    new_max = np.maximum(np.maximum(new_a, new_b), untouched)
    scale = area._layout.num_rows * area._layout.spec.row_height
    out[active] = (new_max - cur_max) * scale
    return out


def _reference_aggregate(evaluator, wirelength, delay, area) -> np.ndarray:
    """``CostEvaluator.aggregate_batch`` with ``membership_batch`` inlined."""
    params = evaluator.params
    if params.aggregation == "fuzzy":
        aggregator = evaluator.aggregator
        weights = tuple(g.weight for g in aggregator.goals)
        weight_sum = float(np.add.reduce(np.array(weights, dtype=np.float64)))
        values = {"wirelength": wirelength, "delay": delay, "area": area}
        beta = aggregator.beta
        weighted = None
        lowest = None
        for goal, weight in zip(aggregator.goals, weights):
            low, high = goal.goal, goal.upper
            scaled = (high - np.asarray(values[goal.name], dtype=np.float64)) / (high - low)
            mu = np.clip(scaled, 0.0, 1.0)
            term = mu * weight
            weighted = term if weighted is None else weighted + term
            lowest = mu if lowest is None else np.minimum(lowest, mu)
        weighted = weighted / weight_sum
        return 1.0 - (beta * lowest + (1.0 - beta) * weighted)
    ref = evaluator.reference
    total_weight = params.wire_weight + params.delay_weight + params.area_weight
    return (
        params.wire_weight * np.asarray(wirelength, dtype=np.float64) / max(ref.wirelength, 1e-9)
        + params.delay_weight * np.asarray(delay, dtype=np.float64) / max(ref.delay, 1e-9)
        + params.area_weight * np.asarray(area, dtype=np.float64) / max(ref.area, 1e-9)
    ) / total_weight


def batch_reference(evaluator, pairs) -> np.ndarray:
    """The placement batch path, frozen verbatim before it became one pass.

    ``CostEvaluator.evaluate_swaps_batch`` as it shipped when each objective
    converted and gathered its own inputs: the wirelength, timing and area
    ``deltas_for_swaps(cells_a, cells_b)`` bodies (the HPWL kernel inlined)
    and the per-goal fuzzy aggregation, or the weighted sum.  It reads the
    evaluator's live caches, counts distinct pairs into ``evaluations`` as
    the shipped method does, and calls no kernel of :mod:`repro.accel` but
    the CSR shared-net test.
    """
    arr = np.asarray(pairs, dtype=np.int64)
    if arr.size == 0:
        return np.zeros(0, dtype=np.float64)
    arr = arr.reshape(-1, 2)
    cells_a = arr[:, 0]
    cells_b = arr[:, 1]
    distinct = cells_a != cells_b
    evaluator.evaluations += int(np.count_nonzero(distinct))
    current = evaluator.objectives()
    costs = _reference_aggregate(
        evaluator,
        current.wirelength
        + _reference_wirelength_deltas(evaluator._wirelength, cells_a, cells_b),
        current.delay + _reference_timing_deltas(evaluator._timing, cells_a, cells_b),
        current.area + _reference_area_deltas(evaluator._area, cells_a, cells_b),
    )
    if not distinct.all():
        costs[~distinct] = evaluator.cost()
    return costs


def qap_reference(
    evaluator: QAPEvaluator,
    cells_a: np.ndarray,
    cells_b: np.ndarray,
    scratch: Optional[Tuple[np.ndarray, ...]] = None,
) -> np.ndarray:
    """The direct NumPy swap-delta kernel, frozen verbatim.

    This is the kernel body :meth:`QAPEvaluator.deltas_for_swaps` shipped
    before it called :func:`repro.accel.qap_swap_deltas`: the contract
    battery pins the shipped kernel against it bit for bit, and
    ``benchmarks/bench_kernels.py`` uses it as the dispatch-tax
    baseline.  It reads the evaluator's state directly and never touches
    :mod:`repro.accel`.  Pass ``scratch`` (four
    ``(m, n)`` float64 buffers) to measure steady-state cost; omitted, the
    buffers are allocated fresh.
    """
    a = np.asarray(cells_a, dtype=np.int64)
    b = np.asarray(cells_b, dtype=np.int64)
    if a.size == 0:
        return np.zeros(0, dtype=np.float64)
    flow = evaluator.instance.flow
    dist = evaluator.instance.distance
    p = evaluator.assignment
    ra = p[a]
    rb = p[b]

    if scratch is None:
        shape = (int(a.size), evaluator.instance.n)
        scratch = tuple(np.empty(shape, dtype=np.float64) for _ in range(4))
    buf0, buf1, buf2, buf3 = scratch
    # row sums: sum_k (F[a,k] - F[b,k]) * (D[rb,p(k)] - D[ra,p(k)])
    np.take(flow, a, axis=0, out=buf0)
    np.take(flow, b, axis=0, out=buf1)
    np.subtract(buf0, buf1, out=buf0)                            # flow rows
    np.take(dist, rb, axis=0, out=buf1)
    np.take(buf1, p, axis=1, out=buf2)
    np.take(dist, ra, axis=0, out=buf1)
    np.take(buf1, p, axis=1, out=buf3)
    np.subtract(buf2, buf3, out=buf2)                            # dist rows
    row_sum = np.einsum("ij,ij->i", buf0, buf2)
    if evaluator._symmetric:
        # F = F^T and D = D^T make the column sums equal to the row sums
        # term-by-term — same values reduced in the same order
        col_sum = row_sum.copy()
    else:
        # column sums: sum_k (F[k,a] - F[k,b]) * (D[p(k),rb] - D[p(k),ra])
        flow_cols = (flow[:, a] - flow[:, b]).T                      # (m, n)
        dist_cols = (dist[np.ix_(p, rb)] - dist[np.ix_(p, ra)]).T    # (m, n)
        col_sum = np.einsum("ij,ij->i", flow_cols, dist_cols)

    # the k = a and k = b terms do not belong in the sums above ...
    f_aa, f_ab = flow[a, a], flow[a, b]
    f_ba, f_bb = flow[b, a], flow[b, b]
    d_aa, d_ab = dist[ra, ra], dist[ra, rb]
    d_ba, d_bb = dist[rb, ra], dist[rb, rb]
    row_sum -= (f_aa - f_ba) * (d_ba - d_aa) + (f_ab - f_bb) * (d_bb - d_ab)
    col_sum -= (f_aa - f_ab) * (d_ab - d_aa) + (f_ba - f_bb) * (d_bb - d_ba)
    # ... they enter exactly once as the four corner terms instead
    corners = (
        f_aa * (d_bb - d_aa)
        + f_bb * (d_aa - d_bb)
        + f_ab * (d_ba - d_ab)
        + f_ba * (d_ab - d_ba)
    )
    deltas = row_sum + col_sum + corners
    deltas[a == b] = 0.0
    return deltas


def sta_reference(analyzer: TimingAnalyzer, placement: Placement) -> TimingResult:
    """Reference scalar STA (the pre-vectorisation implementation).

    The correctness oracle for :meth:`TimingAnalyzer.analyze`: the
    equivalence tests drive both over random placements and assert identical
    arrival times, critical delay and critical path.
    """
    graph = analyzer.graph
    x = placement.cell_x()
    y = placement.cell_y()
    n = analyzer.netlist.num_cells
    arrival = np.zeros(n, dtype=np.float64)
    best_pred = np.full(n, -1, dtype=np.int64)
    wpu = analyzer.model.wire_delay_per_unit
    delays = graph.delays
    for c in reference_topo_order(graph.prop_fanin):
        fanin = graph.prop_fanin[c]
        if fanin:
            best = -np.inf
            pred = -1
            xc = x[c]
            yc = y[c]
            for d in fanin:
                t = arrival[d] + wpu * (abs(x[d] - xc) + abs(y[d] - yc))
                if t > best:
                    best = t
                    pred = d
            arrival[c] = best + delays[c]
            best_pred[c] = pred
        else:
            arrival[c] = delays[c]

    # Data arrival at endpoints: max over endpoint fan-in of
    # arrival(driver) + wire(driver, endpoint).
    critical_delay = 0.0
    critical_end = -1
    critical_end_pred = -1
    for c in np.flatnonzero(graph.is_end):
        fanin = graph.end_fanin[c]
        if not fanin:
            continue
        xc = x[c]
        yc = y[c]
        for d in fanin:
            t = arrival[d] + wpu * (abs(x[d] - xc) + abs(y[d] - yc))
            if t > critical_delay:
                critical_delay = float(t)
                critical_end = int(c)
                critical_end_pred = int(d)

    path: List[int] = []
    if critical_end >= 0:
        path.append(critical_end)
        cursor = critical_end_pred
        while cursor >= 0:
            path.append(cursor)
            cursor = int(best_pred[cursor])
        path.reverse()
    return TimingResult(
        critical_delay=float(critical_delay),
        arrival=arrival,
        critical_path=tuple(path),
    )
