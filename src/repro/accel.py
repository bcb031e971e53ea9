"""The hot NumPy kernels: batched QAP and HPWL swap deltas, fused select.

The profile of a search is made of three kernels — the QAP batched
swap-delta, the placement batched HPWL delta, and the driver's fused
tabu+aspiration masked-argmin select — plus the one inner loop of the HPWL
kernel that NumPy can only express as a multi-pass pipeline (the CSR
shared-net membership test).  They live here as functions over plain
arrays; the domain evaluators pass their cache arrays in.  The parity
suites in ``tests/accel`` and ``tests/placement/test_kernels.py`` pin every
kernel bit-for-bit against the frozen copies in ``tests/oracles/kernels.py``.

This module is engine code: it may not import a problem domain, so the
netlist-specific step of the HPWL kernel (expanding each candidate pair over
its cells' nets) is done by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "masked_argmin",
    "fuse_admissible",
    "qap_swap_deltas",
    "HpwlArrays",
    "hpwl_batch_deltas",
    "shared_net_mask",
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
# placement: the inner loop of the HPWL kernel
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


# ---------------------------------------------------------------------- #
# placement: batched HPWL deltas over the dense-incidence / CSR caches
# ---------------------------------------------------------------------- #
@dataclass
class HpwlArrays:
    """The :class:`WirelengthState` cache arrays the HPWL kernel reads.

    Exactly one of ``incidence`` (the dense boolean cell×net matrix,
    flattened: entry ``cell * num_nets + net``) and ``csr_keys`` (sorted
    ``cell * num_nets + net`` incidence keys, with ``csr_bits``, each cell's
    64-bit net signature: bit ``net & 63`` set for each of its nets) is set,
    mirroring the state's shared-net detection mode.  ``bbox`` is the
    state's ``(8, num_nets)`` block of bbox edges and their next-inner
    values (``x_min, x_max, y_min, y_max``, then the same four inner rows).
    Every field is the state's live array.
    """

    num_nets: int
    incidence: Optional[np.ndarray]
    csr_keys: Optional[np.ndarray]
    csr_bits: Optional[np.ndarray]
    bbox: np.ndarray
    per_net: np.ndarray
    net_weights: np.ndarray


def hpwl_batch_deltas(
    arrays: HpwlArrays,
    *,
    ends: np.ndarray,
    xy: np.ndarray,
    end: np.ndarray,
    net: np.ndarray,
) -> np.ndarray:
    """Weighted-HPWL deltas of a flat-expanded candidate batch.

    ``ends`` are the batch's endpoints interleaved ``a0, b0, a1, b1, ...``
    and ``xy`` their ``(2, len(ends))`` coordinates.  The caller
    (``WirelengthState.deltas_for_swaps``) has already expanded the
    endpoints to flat items: item ``i`` moves the pin of endpoint
    ``end[i]`` on ``net[i]`` to the position of its partner ``end[i] ^ 1``,
    and each pair's items run a's nets, then b's.  Steps here:

    1. neutralise items whose swap partner shares the net (one gather of
       the flattened dense incidence, or a binary search of the sorted CSR
       keys for the items whose partner's net signature has the net's bit).
       A self-pair's partner is the cell itself, which sits on every net of
       its items, so self-pairs need no mask of their own;
    2. exact O(1) bbox-edge updates, all four edges at once: a pin leaving
       an edge exposes the edge's cached next-inner value, so the new
       minimum is ``min(inner if frm == edge else edge, to)`` (mirrored for
       maxima), and no item re-reduces its net's members;
    3. weighted per-item deltas folded per pair with ``bincount``.

    Returns a float64 array of per-pair deltas.
    """
    partner = end ^ 1
    other = ends.take(partner)

    # --- shared-net / self-swap neutralisation ------------------------- #
    if arrays.incidence is not None:
        active = ~arrays.incidence.take(other * np.int64(arrays.num_nets) + net)
    else:
        active = np.ones(net.size, dtype=bool)
        maybe = np.flatnonzero(
            (arrays.csr_bits.take(other) >> (net & 63).astype(np.uint64)) & np.uint64(1)
        )
        keys = other.take(maybe) * np.int64(arrays.num_nets) + net.take(maybe)
        active[maybe] = ~shared_net_mask(arrays.csr_keys, keys)

    # --- exact O(1) bbox-edge updates from the cache ------------------- #
    # [[x_min, x_max], [y_min, y_max]] per item, and their next-inner values
    bbox = arrays.bbox.take(net, axis=1)
    edges = bbox[:4].reshape(2, 2, -1)
    moved = np.where(edges == xy.take(end, axis=1)[:, None], bbox[4:].reshape(2, 2, -1), edges)
    to = xy.take(partner, axis=1)
    span = np.maximum(moved[:, 1], to)
    span -= np.minimum(moved[:, 0], to)

    # --- weighted per-item deltas, folded per pair --------------------- #
    new_hpwl = span[0] + span[1]
    per_item = arrays.net_weights.take(net) * (new_hpwl - arrays.per_net.take(net))
    per_item *= active  # zero the contributions of masked items
    return np.bincount(end >> 1, weights=per_item, minlength=ends.size >> 1)
