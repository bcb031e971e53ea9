"""Frozen reference kernels: the bit-identity oracles of the shipped kernels.

Each function is the direct implementation a shipped kernel replaced, kept
verbatim so the parity suites can pin the shipped kernel against it:

* :func:`wirelength_reference` — the batched HPWL swap-delta kernel of
  :meth:`~repro.placement.wirelength.WirelengthState.deltas_for_swaps`
  before it moved into :func:`repro.accel.hpwl_batch_deltas`, with the
  edge-multiplicity caches and segment-reduce fallback
  (:func:`fallback_bbox_reduce`) it had before the next-inner caches
  replaced them;
* :func:`qap_reference` — the batched QAP swap-delta kernel of
  :meth:`~repro.problems.qap.evaluator.QAPEvaluator.deltas_for_swaps`
  before it moved into :func:`repro.accel.qap_swap_deltas`;
* :func:`sta_reference` — the scalar static timing analysis that
  :meth:`~repro.placement.timing.TimingAnalyzer.analyze` vectorised; it
  walks the cells in the Kahn order of the frozen graph builder
  (:mod:`oracles.timing_graph`).

``benchmarks/bench_kernels.py`` times the shipped kernels against the
two delta oracles: the dispatch tax of calling through :mod:`repro.accel`.
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
