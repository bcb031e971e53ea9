"""The hot NumPy kernels: batched QAP and HPWL swap deltas, fused select.

The profile of a search is made of three kernels — the QAP batched
swap-delta, the placement batched HPWL delta, and the driver's fused
tabu+aspiration masked-argmin select — plus the two inner loops of the HPWL
kernel that NumPy can only express as multi-pass pipelines (the CSR
shared-net membership test and the segment-reduce fallback for vacated bbox
edges).  They live here as functions over plain arrays; the domain
evaluators pass their cache arrays in.  The parity suites in
``tests/accel`` and ``tests/placement/test_kernels.py`` pin every kernel
bit-for-bit against the frozen copies in ``tests/oracles/kernels.py``.

This module is engine code: it may not import a problem domain, so the one
netlist-specific step the HPWL kernel needs (gathering a net's members) is
passed in by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "masked_argmin",
    "fuse_admissible",
    "qap_swap_deltas",
    "HpwlArrays",
    "hpwl_batch_deltas",
    "shared_net_mask",
    "fallback_bbox_reduce",
]


# ---------------------------------------------------------------------- #
# the driver's fused tabu+aspiration masked-argmin select
# ---------------------------------------------------------------------- #
def masked_argmin(costs, mask=None) -> int:
    """Index of the lowest cost among ``mask``-admissible candidates.

    With no mask — or with *every* candidate masked out — the overall
    argmin wins: the compound-move builder must always commit something,
    and the driver's move-level tabu check still guards final acceptance.
    Ties break toward the first minimum (``argmin`` semantics), as a
    strict-less scalar scan would.
    """
    if mask is None or not bool(mask.any()):
        return int(np.argmin(costs))
    return int(np.argmin(np.where(mask, costs, np.inf)))


def fuse_admissible(tabu_mask, permits):
    """Admissible = not tabu, or tabu-but-aspiring (one fused mask op)."""
    return ~tabu_mask | permits


# ---------------------------------------------------------------------- #
# QAP: batched swap deltas
# ---------------------------------------------------------------------- #
def qap_swap_deltas(
    flow,
    dist,
    p,
    a,
    b,
    ra,
    rb,
    *,
    symmetric: bool,
    scratch,
):
    """Raw-cost deltas of swapping each ``(a[i], b[i])`` facility pair.

    ``p`` is the permutation, ``ra``/``rb`` the current locations of the
    swapped facilities, and ``scratch`` four reusable ``(m, n)`` float64
    buffers.  The symmetric path stages every gather through the scratch
    buffers and mirrors the column sums off the row sums; the asymmetric
    branch materialises its gathers.  Self-pairs get a zero delta.
    """
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
    if symmetric:
        # F = F^T and D = D^T make the column sums (and their k = a, b
        # corrections below) equal to the row sums term-by-term
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


# ---------------------------------------------------------------------- #
# placement: the two inner loops of the HPWL kernel
# ---------------------------------------------------------------------- #
def shared_net_mask(sorted_keys: np.ndarray, query_keys: np.ndarray) -> np.ndarray:
    """Membership of each query key in a sorted key array.

    ``sorted_keys`` is the globally sorted ``cell * num_nets + net`` encoding
    of the cell→net incidence; a query key is present iff that cell sits on
    that net.  One ``searchsorted`` plus a gather-and-compare.
    """
    out = np.zeros(query_keys.size, dtype=bool)
    if sorted_keys.size == 0 or query_keys.size == 0:
        return out
    pos = np.searchsorted(sorted_keys, query_keys)
    np.minimum(pos, sorted_keys.size - 1, out=pos)
    np.equal(sorted_keys[pos], query_keys, out=out)
    return out


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


# ---------------------------------------------------------------------- #
# placement: batched HPWL deltas over the dense-incidence / CSR caches
# ---------------------------------------------------------------------- #
@dataclass
class HpwlArrays:
    """The :class:`WirelengthState` cache arrays the HPWL kernel reads.

    Exactly one of ``incidence`` (dense boolean cell×net matrix) and
    ``csr_keys`` (sorted ``cell * num_nets + net`` incidence keys) is set,
    mirroring the state's shared-net detection mode.  Every field is the
    state's live array.
    """

    num_nets: int
    incidence: Optional[np.ndarray]
    csr_keys: Optional[np.ndarray]
    x_min: np.ndarray
    x_max: np.ndarray
    y_min: np.ndarray
    y_max: np.ndarray
    n_x_min: np.ndarray
    n_x_max: np.ndarray
    n_y_min: np.ndarray
    n_y_max: np.ndarray
    per_net: np.ndarray
    net_weights: np.ndarray


def _shrink_min(cur, support, frm, to):
    """Fast-path new minimum after one pin moves ``frm → to`` (+ fallback mask)."""
    new = np.minimum(cur, to)
    fallback = (frm == cur) & (support <= 1) & (to > cur)
    return new, fallback


def _shrink_max(cur, support, frm, to):
    """Fast-path new maximum after one pin moves ``frm → to`` (+ fallback mask)."""
    new = np.maximum(cur, to)
    fallback = (frm == cur) & (support <= 1) & (to < cur)
    return new, fallback


def hpwl_batch_deltas(
    arrays: HpwlArrays,
    *,
    num_pairs: int,
    pair: np.ndarray,
    net: np.ndarray,
    other: np.ndarray,
    moved: np.ndarray,
    from_x: np.ndarray,
    from_y: np.ndarray,
    to_x: np.ndarray,
    to_y: np.ndarray,
    active: np.ndarray,
    cts: np.ndarray,
    slot_x: np.ndarray,
    slot_y: np.ndarray,
    gather_members: Callable,
) -> np.ndarray:
    """Weighted-HPWL deltas of a flat-expanded candidate batch.

    The caller (``WirelengthState.deltas_for_swaps``) has already expanded
    the pairs to flat ``(pair, net)`` items.  Steps here:

    1. neutralise items whose swap partner shares the net (one dense
       incidence gather, or a binary search of the sorted CSR keys);
    2. O(1) bbox-edge updates from the cached edge multiplicities;
    3. segment-reduce for the rare vacated-edge fallbacks, scattered back;
    4. weighted per-item deltas folded per pair with ``bincount``.

    ``active`` is updated in place.  Returns a float64 array of per-pair
    deltas.
    """
    out = np.zeros(num_pairs, dtype=np.float64)

    # --- shared-net / self-swap neutralisation ------------------------- #
    if arrays.incidence is not None:
        active &= ~arrays.incidence[other, net]
    else:
        keys = other * np.int64(arrays.num_nets) + net
        active &= ~shared_net_mask(arrays.csr_keys, keys)
    if not bool(active.any()):
        return out

    # --- O(1) bbox-edge updates from the cache ------------------------- #
    new_x_min, fb_x_min = _shrink_min(
        arrays.x_min[net], arrays.n_x_min[net], from_x, to_x
    )
    new_x_max, fb_x_max = _shrink_max(
        arrays.x_max[net], arrays.n_x_max[net], from_x, to_x
    )
    new_y_min, fb_y_min = _shrink_min(
        arrays.y_min[net], arrays.n_y_min[net], from_y, to_y
    )
    new_y_max, fb_y_max = _shrink_max(
        arrays.y_max[net], arrays.n_y_max[net], from_y, to_y
    )

    # --- segment-reduce fallback for vacated edges --------------------- #
    # inactive items are excluded: their contribution is zeroed below, so
    # re-reducing their members would be pure waste
    fallback = (fb_x_min | fb_x_max | fb_y_min | fb_y_max) & active
    if bool(fallback.any()):
        idx = np.flatnonzero(fallback)
        members, counts = gather_members(net[idx])
        fb_x_lo, fb_x_hi, fb_y_lo, fb_y_hi = fallback_bbox_reduce(
            members, counts, moved[idx], to_x[idx], to_y[idx], cts, slot_x, slot_y
        )
        new_x_min[idx] = fb_x_lo
        new_x_max[idx] = fb_x_hi
        new_y_min[idx] = fb_y_lo
        new_y_max[idx] = fb_y_hi

    # --- weighted per-item deltas, folded per pair --------------------- #
    new_hpwl = (new_x_max - new_x_min) + (new_y_max - new_y_min)
    per_item = arrays.net_weights[net] * (new_hpwl - arrays.per_net[net])
    per_item *= active  # zero the contributions of masked items
    out[:] = np.bincount(pair, weights=per_item, minlength=num_pairs)
    return out
