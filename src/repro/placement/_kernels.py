"""NumPy kernels for the two scalar-ish inner loops of the swap-delta kernel.

The batched wirelength kernel has two inner loops that NumPy can only
express as multi-pass array pipelines: the CSR shared-net membership test (a
binary search per flat ``(pair, net)`` item) and the segment-reduce fallback
for vacated bbox edges.  This module holds both, as single functions the
wirelength state and the accelerator dispatch layer call.
"""

from __future__ import annotations

import numpy as np

__all__ = ["shared_net_mask", "fallback_bbox_reduce"]


# ---------------------------------------------------------------------- #
# CSR shared-net membership
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
# segment-reduce fallback for vacated bbox edges
# ---------------------------------------------------------------------- #
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
