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

    Exactly one of ``incidence`` (dense boolean cell×net matrix) and
    ``csr_keys`` (sorted ``cell * num_nets + net`` incidence keys, with
    ``csr_bits``, each cell's 64-bit net signature: bit ``net & 63`` set
    for each of its nets) is set, mirroring the state's shared-net
    detection mode.  Every field is the state's live array.
    """

    num_nets: int
    incidence: Optional[np.ndarray]
    csr_keys: Optional[np.ndarray]
    csr_bits: Optional[np.ndarray]
    x_min: np.ndarray
    x_max: np.ndarray
    y_min: np.ndarray
    y_max: np.ndarray
    inner_x_min: np.ndarray
    inner_x_max: np.ndarray
    inner_y_min: np.ndarray
    inner_y_max: np.ndarray
    per_net: np.ndarray
    net_weights: np.ndarray


def hpwl_batch_deltas(
    arrays: HpwlArrays,
    *,
    num_pairs: int,
    pair: np.ndarray,
    net: np.ndarray,
    other: np.ndarray,
    from_x: np.ndarray,
    from_y: np.ndarray,
    to_x: np.ndarray,
    to_y: np.ndarray,
    active: np.ndarray,
) -> np.ndarray:
    """Weighted-HPWL deltas of a flat-expanded candidate batch.

    The caller (``WirelengthState.deltas_for_swaps``) has already expanded
    the pairs to flat ``(pair, net)`` items: each item moves one pin of
    ``net`` from ``(from_x, from_y)`` to ``(to_x, to_y)``, and ``other`` is
    the swap partner.  Steps here:

    1. neutralise items whose swap partner shares the net (one dense
       incidence gather, or a binary search of the sorted CSR keys for the
       items whose partner's net signature has the net's bit);
    2. exact O(1) bbox-edge updates: a pin leaving an edge exposes the
       edge's cached next-inner value, so the new minimum is
       ``min(inner if frm == edge else edge, to)`` (mirrored for maxima),
       so no item re-reduces its net's members (66% of a 256-pair batch's
       items move the only pin on some edge of their net);
    3. weighted per-item deltas folded per pair with ``bincount``.

    ``active`` is updated in place.  Returns a float64 array of per-pair
    deltas.
    """
    out = np.zeros(num_pairs, dtype=np.float64)

    # --- shared-net / self-swap neutralisation ------------------------- #
    if arrays.incidence is not None:
        active &= ~arrays.incidence[other, net]
    else:
        maybe = np.flatnonzero(
            (arrays.csr_bits[other] >> (net & 63).astype(np.uint64)) & np.uint64(1)
        )
        keys = other[maybe] * np.int64(arrays.num_nets) + net[maybe]
        active[maybe] &= ~shared_net_mask(arrays.csr_keys, keys)
    if not bool(active.any()):
        return out

    # --- exact O(1) bbox-edge updates from the cache ------------------- #
    x_min = arrays.x_min[net]
    new_x_min = np.minimum(np.where(from_x == x_min, arrays.inner_x_min[net], x_min), to_x)
    x_max = arrays.x_max[net]
    new_x_max = np.maximum(np.where(from_x == x_max, arrays.inner_x_max[net], x_max), to_x)
    y_min = arrays.y_min[net]
    new_y_min = np.minimum(np.where(from_y == y_min, arrays.inner_y_min[net], y_min), to_y)
    y_max = arrays.y_max[net]
    new_y_max = np.maximum(np.where(from_y == y_max, arrays.inner_y_max[net], y_max), to_y)

    # --- weighted per-item deltas, folded per pair --------------------- #
    new_hpwl = (new_x_max - new_x_min) + (new_y_max - new_y_min)
    per_item = arrays.net_weights[net] * (new_hpwl - arrays.per_net[net])
    per_item *= active  # zero the contributions of masked items
    out[:] = np.bincount(pair, weights=per_item, minlength=num_pairs)
    return out
