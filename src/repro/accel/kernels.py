"""xp-generic hot kernels: written once, executed under numpy *or* cupy.

The three kernels the profile is made of — the QAP batched swap-delta, the
placement batched HPWL delta, and the driver's fused tabu+aspiration
masked-argmin select — live here as functions over an
:class:`~repro.accel.backend.ArrayBackend` plus plain arrays.  The domain
evaluators stage their device-resident state (matrices, incidence,
bbox caches) and call in; under the CPU backend every array *is* the host
array and the operations below are exactly the NumPy pipelines the direct
kernels used — same operations, same order, bit-identical results (the
parity suites in ``tests/accel`` pin this against the frozen reference
copies in ``tests/oracles/kernels.py``).

Two sub-steps are backend-divergent by nature and are isolated behind
explicit seams rather than hidden in the flow:

* the CSR shared-net membership test has a CPU twin
  (:func:`repro.placement._kernels.shared_net_mask`, passed in by the
  caller) and a generic ``searchsorted`` path that runs under cupy;
* the segment-reduce fallback for vacated bbox edges relies on
  ``ufunc.reduceat``, which cupy does not implement — those (rare) segments
  are reduced on the host and scattered back, which is why ``moved`` and
  the coordinate arrays stay host-side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .backend import ArrayBackend
from .device import module_for

__all__ = [
    "masked_argmin",
    "fuse_admissible",
    "qap_swap_deltas",
    "HpwlArrays",
    "hpwl_batch_deltas",
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
    strict-less scalar scan would.  Runs under whichever array module
    produced ``costs``.
    """
    xp = module_for(costs)
    if mask is None or not bool(mask.any()):
        return int(xp.argmin(costs))
    return int(xp.argmin(xp.where(mask, costs, xp.inf)))


def fuse_admissible(tabu_mask, permits):
    """Admissible = not tabu, or tabu-but-aspiring (one fused mask op)."""
    return ~tabu_mask | permits


# ---------------------------------------------------------------------- #
# QAP: batched swap deltas
# ---------------------------------------------------------------------- #
def qap_swap_deltas(
    backend: ArrayBackend,
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

    All array arguments live in ``backend``'s space (``flow``/``dist``/``p``
    device-resident, ``a``/``b``/``ra``/``rb`` the per-call uploads);
    ``scratch`` is four reusable ``(m, n)`` float64 buffers from the
    backend's pool.  The math and reduction order match the direct kernel
    this replaced term-for-term — the symmetric path stages every gather
    through the scratch buffers and mirrors the column sums off the row
    sums, the asymmetric branch materialises its gathers.  Self-pairs get a
    zero delta.  Returns a backend-space array (the caller downloads).
    """
    xp = backend.xp
    buf0, buf1, buf2, buf3 = scratch
    # row sums: sum_k (F[a,k] - F[b,k]) * (D[rb,p(k)] - D[ra,p(k)])
    xp.take(flow, a, axis=0, out=buf0)
    xp.take(flow, b, axis=0, out=buf1)
    xp.subtract(buf0, buf1, out=buf0)                            # flow rows
    xp.take(dist, rb, axis=0, out=buf1)
    xp.take(buf1, p, axis=1, out=buf2)
    xp.take(dist, ra, axis=0, out=buf1)
    xp.take(buf1, p, axis=1, out=buf3)
    xp.subtract(buf2, buf3, out=buf2)                            # dist rows
    row_sum = xp.einsum("ij,ij->i", buf0, buf2)
    if symmetric:
        # F = F^T and D = D^T make the column sums (and their k = a, b
        # corrections below) equal to the row sums term-by-term
        col_sum = row_sum.copy()
    else:
        # column sums: sum_k (F[k,a] - F[k,b]) * (D[p(k),rb] - D[p(k),ra])
        flow_cols = (flow[:, a] - flow[:, b]).T                      # (m, n)
        dist_cols = (dist[xp.ix_(p, rb)] - dist[xp.ix_(p, ra)]).T    # (m, n)
        col_sum = xp.einsum("ij,ij->i", flow_cols, dist_cols)

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
# placement: batched HPWL deltas over the dense-incidence / CSR caches
# ---------------------------------------------------------------------- #
@dataclass
class HpwlArrays:
    """Backend-space view of one :class:`WirelengthState`'s cache arrays.

    Exactly one of ``incidence`` (dense boolean cell×net matrix) and
    ``csr_keys`` (sorted ``cell * num_nets + net`` incidence keys) is set,
    mirroring the state's shared-net detection mode.  On the CPU backend
    every field *is* the live host array; on cuda they are device mirrors
    the state re-syncs after committed swaps.
    """

    num_nets: int
    incidence: Optional[object]
    csr_keys: Optional[object]
    x_min: object
    x_max: object
    y_min: object
    y_max: object
    n_x_min: object
    n_x_max: object
    n_y_min: object
    n_y_max: object
    per_net: object
    net_weights: object


def _shrink_min(xp, cur, support, frm, to):
    """Fast-path new minimum after one pin moves ``frm → to`` (+ fallback mask)."""
    new = xp.minimum(cur, to)
    fallback = (frm == cur) & (support <= 1) & (to > cur)
    return new, fallback


def _shrink_max(xp, cur, support, frm, to):
    """Fast-path new maximum after one pin moves ``frm → to`` (+ fallback mask)."""
    new = xp.maximum(cur, to)
    fallback = (frm == cur) & (support <= 1) & (to < cur)
    return new, fallback


def _shared_net_mask_generic(xp, sorted_keys, query_keys):
    """Membership of each query key in a sorted key array (any backend).

    The same ``searchsorted`` + gather-and-compare pipeline as the NumPy
    twin in :mod:`repro.placement._kernels`; used under cupy, where that
    host function cannot run.
    """
    pos = xp.searchsorted(sorted_keys, query_keys)
    xp.minimum(pos, sorted_keys.size - 1, out=pos)
    return sorted_keys[pos] == query_keys


def hpwl_batch_deltas(
    backend: ArrayBackend,
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
    shared_mask_cpu: Callable,
    bbox_reduce_cpu: Callable,
) -> np.ndarray:
    """Weighted-HPWL deltas of a flat-expanded candidate batch.

    The caller (``WirelengthState.deltas_for_swaps``) has already expanded
    the pairs to flat ``(pair, net)`` items on the host — those index
    arrays are the per-iteration host→device traffic.  Steps here:

    1. neutralise items whose swap partner shares the net (one dense
       incidence gather, or a binary search of the sorted CSR keys);
    2. O(1) bbox-edge updates from the cached edge multiplicities;
    3. host-side segment-reduce for the rare vacated-edge fallbacks
       (``reduceat`` has no cupy equivalent), scattered back;
    4. weighted per-item deltas folded per pair with ``bincount``.

    ``moved``, ``cts``, ``slot_x``, ``slot_y`` stay host-side (fallback
    only).  Returns a *host* float64 array of per-pair deltas.
    """
    xp = backend.xp
    out = np.zeros(num_pairs, dtype=np.float64)
    net_d = backend.to_device(net)
    active_d = backend.to_device(active)

    # --- shared-net / self-swap neutralisation ------------------------- #
    if arrays.incidence is not None:
        active_d &= ~arrays.incidence[backend.to_device(other), net_d]
    else:
        keys = other * np.int64(arrays.num_nets) + net
        if xp is np:
            active_d &= ~shared_mask_cpu(arrays.csr_keys, keys)
        else:  # pragma: no cover - cupy only
            keys_d = backend.to_device(keys)
            active_d &= ~_shared_net_mask_generic(xp, arrays.csr_keys, keys_d)
    if not bool(active_d.any()):
        return out

    from_x_d = backend.to_device(from_x)
    from_y_d = backend.to_device(from_y)
    to_x_d = backend.to_device(to_x)
    to_y_d = backend.to_device(to_y)

    # --- O(1) bbox-edge updates from the cache ------------------------- #
    new_x_min, fb_x_min = _shrink_min(
        xp, arrays.x_min[net_d], arrays.n_x_min[net_d], from_x_d, to_x_d
    )
    new_x_max, fb_x_max = _shrink_max(
        xp, arrays.x_max[net_d], arrays.n_x_max[net_d], from_x_d, to_x_d
    )
    new_y_min, fb_y_min = _shrink_min(
        xp, arrays.y_min[net_d], arrays.n_y_min[net_d], from_y_d, to_y_d
    )
    new_y_max, fb_y_max = _shrink_max(
        xp, arrays.y_max[net_d], arrays.n_y_max[net_d], from_y_d, to_y_d
    )

    # --- segment-reduce fallback for vacated edges --------------------- #
    # inactive items are excluded: their contribution is zeroed below, so
    # re-reducing their members would be pure waste
    fallback = (fb_x_min | fb_x_max | fb_y_min | fb_y_max) & active_d
    if bool(fallback.any()):
        idx = np.flatnonzero(backend.to_host(fallback))
        members, counts = gather_members(net[idx])
        fb_x_lo, fb_x_hi, fb_y_lo, fb_y_hi = bbox_reduce_cpu(
            members, counts, moved[idx], to_x[idx], to_y[idx], cts, slot_x, slot_y
        )
        if xp is np:
            new_x_min[idx] = fb_x_lo
            new_x_max[idx] = fb_x_hi
            new_y_min[idx] = fb_y_lo
            new_y_max[idx] = fb_y_hi
        else:  # pragma: no cover - cupy only
            idx_d = backend.to_device(idx)
            new_x_min[idx_d] = backend.to_device(fb_x_lo)
            new_x_max[idx_d] = backend.to_device(fb_x_hi)
            new_y_min[idx_d] = backend.to_device(fb_y_lo)
            new_y_max[idx_d] = backend.to_device(fb_y_hi)

    # --- weighted per-item deltas, folded per pair --------------------- #
    new_hpwl = (new_x_max - new_x_min) + (new_y_max - new_y_min)
    per_item = arrays.net_weights[net_d] * (new_hpwl - arrays.per_net[net_d])
    per_item *= active_d  # zero the contributions of masked items
    folded = xp.bincount(backend.to_device(pair), weights=per_item, minlength=num_pairs)
    out[:] = backend.to_host(folded)
    return out
