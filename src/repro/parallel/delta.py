"""Delta encoding of solutions for the parallel protocol.

The seed protocol pickled the *full* solution array on every hop —
master→TSW broadcast, TSW→CLW task, TSW→master report — and every receiver
paid a full cache rebuild to install it.  But consecutive solutions on one
hop differ by only a handful of swaps (the accepted compound move of one
local iteration, or one global round's search path), so workers can keep
their solution *resident* and exchange just the difference:

* :func:`swap_list_between` turns the difference of two assignments into a
  minimal swap sequence (cycle-chasing over the differing cells; at most one
  swap per differing cell), applied with the evaluator's bulk
  ``apply_swaps`` path (:class:`~repro.core.protocols.SwapEvaluator`);
* :class:`SolutionPayload` is the wire form — either a full ``int32``
  assignment or a swap list against a *versioned* base the receiver must
  hold.  A compact ``__reduce__`` codec packs either form into one ``bytes``
  blob for the real (pickling) backends;
* :class:`DeltaEncoder` is the sender side: it tracks, per receiver, the
  resident solution it believes the receiver holds and decides full versus
  delta shipment (first contact, an invalidated receiver, or a diff larger
  than :attr:`~DeltaEncoder.MAX_DELTA_FRACTION` of the cells always ships
  full);
* :class:`ResidentSolution` is the receiver side of both tiers (a TSW
  adopting broadcasts, a CLW adopting tasks): it installs or applies a
  payload, verifies a delta's base version and checksum, and asks for a
  full re-send instead of adopting a delta onto the wrong base — the caller
  then answers with a ``needs_full`` NACK and the sender falls back to full
  shipment.

Versions are protocol round identifiers (the TSW task counter for TSW↔CLW,
the global iteration for master↔TSW), not content hashes: both ends step
through the same rounds, so equal versions imply equal resident content.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..core.protocols import SearchProblem, SwapEvaluator

__all__ = [
    "SolutionPayload",
    "DeltaEncoder",
    "ResidentSolution",
    "swap_list_between",
    "solution_crc",
    "decode_solution",
]

#: Wire dtype of solution and swap arrays: slot/cell indices comfortably fit
#: 32 bits, halving the bytes of every full shipment.
WIRE_DTYPE = np.int32


def swap_list_between(current: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Swap sequence transforming assignment ``current`` into ``target``.

    Returns an ``(k, 2)`` array of cell pairs; applying the swaps in order to
    ``current`` (exchange the slots of the two cells) yields exactly
    ``target``.  ``k`` is at most the number of differing cells (cycle
    chasing fixes at least one cell per swap), so identical assignments give
    an empty list.
    """
    cur = np.asarray(current, dtype=np.int64).copy()
    tgt = np.asarray(target, dtype=np.int64)
    if cur.shape != tgt.shape:
        raise ValueError(f"assignment shapes differ: {cur.shape} vs {tgt.shape}")
    diff = np.flatnonzero(cur != tgt)
    if diff.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    # slot → cell map restricted to the differing cells: the occupant of any
    # differing cell's target slot is itself a differing cell (permutations).
    occupant: Dict[int, int] = {int(s): int(c) for c, s in zip(diff, cur[diff])}
    swaps: List[Tuple[int, int]] = []
    for cell in diff:
        cell = int(cell)
        while cur[cell] != tgt[cell]:
            other = occupant[int(tgt[cell])]
            slot_c, slot_o = int(cur[cell]), int(cur[other])
            cur[cell], cur[other] = slot_o, slot_c
            occupant[slot_o] = cell
            occupant[slot_c] = other
            swaps.append((cell, other))
    return np.asarray(swaps, dtype=np.int64).reshape(-1, 2)


def solution_crc(solution: np.ndarray) -> int:
    """Checksum of an assignment in canonical wire form.

    Shipped with every delta so the receiver can prove the reconstructed
    solution matches the sender's target — any resident-tracking bug turns
    into a ``needs_full`` NACK (and a recovering full shipment) instead of a
    silently diverged search.
    """
    canonical = np.ascontiguousarray(solution, dtype=WIRE_DTYPE)
    return zlib.crc32(canonical.tobytes())


_WIRE_HEADER = struct.Struct("<bqqIi")  # kind, version, base_version, crc, length


@dataclass
class SolutionPayload:
    """One shipped solution: full assignment or swap-list delta.

    Attributes
    ----------
    version:
        Protocol round identifier of the target solution.
    full:
        Complete ``cell → slot`` assignment (``int32``), or ``None`` in delta
        form.
    base_version:
        Version the receiver's resident solution must have for ``swaps`` to
        apply; ``-1`` in full form.
    swaps:
        ``(k, 2)`` ``int32`` cell pairs turning the base into the target, in
        application order; ``None`` in full form.
    target_crc:
        :func:`solution_crc` of the target solution (delta form only); the
        receiver verifies it after applying the swaps.
    """

    version: int
    full: Optional[np.ndarray] = None
    base_version: int = -1
    swaps: Optional[np.ndarray] = None
    target_crc: int = 0

    @classmethod
    def full_shipment(cls, solution: np.ndarray, version: int) -> "SolutionPayload":
        """Wrap a complete assignment for the wire."""
        return cls(version=version, full=np.asarray(solution).astype(WIRE_DTYPE))

    @classmethod
    def delta_shipment(
        cls, swaps: np.ndarray, version: int, base_version: int, target_crc: int = 0
    ) -> "SolutionPayload":
        """Wrap a swap-list delta against a versioned base."""
        return cls(
            version=version,
            base_version=base_version,
            swaps=np.asarray(swaps).astype(WIRE_DTYPE).reshape(-1, 2),
            target_crc=target_crc,
        )

    @property
    def is_full(self) -> bool:
        """Whether this payload carries the complete assignment."""
        return self.full is not None

    @property
    def num_swaps(self) -> int:
        """Delta length (0 for a full shipment)."""
        return 0 if self.swaps is None else int(self.swaps.shape[0])

    def full_solution(self) -> np.ndarray:
        """The complete assignment as ``int64`` (full form only)."""
        if self.full is None:
            raise ValueError("delta payload carries no full solution")
        return np.asarray(self.full, dtype=np.int64)

    def swap_pairs(self) -> np.ndarray:
        """The delta swap list as ``int64`` pairs (delta form only)."""
        if self.swaps is None:
            raise ValueError("full payload carries no swap list")
        return np.asarray(self.swaps, dtype=np.int64)

    # -------------------------------------------------------------- #
    # compact wire codec: one bytes blob instead of generic pickle of
    # a dataclass holding NumPy arrays (saves the per-array pickle
    # framing on every hot message of the real backends)
    # -------------------------------------------------------------- #
    def __reduce__(self):
        if self.full is not None:
            body = np.ascontiguousarray(self.full, dtype=WIRE_DTYPE)
            header = _WIRE_HEADER.pack(0, self.version, -1, 0, body.size)
        else:
            body = np.ascontiguousarray(self.swaps, dtype=WIRE_DTYPE)
            header = _WIRE_HEADER.pack(
                1, self.version, self.base_version, self.target_crc, body.size
            )
        return (_payload_from_wire, (header + body.tobytes(),))


def _payload_from_wire(blob: bytes) -> SolutionPayload:
    """Inverse of :meth:`SolutionPayload.__reduce__`."""
    kind, version, base_version, crc, length = _WIRE_HEADER.unpack_from(blob)
    body = np.frombuffer(blob, dtype=WIRE_DTYPE, offset=_WIRE_HEADER.size, count=length)
    if kind == 0:
        return SolutionPayload(version=version, full=body)
    return SolutionPayload(
        version=version,
        base_version=base_version,
        swaps=body.reshape(-1, 2),
        target_crc=crc,
    )


def decode_solution(
    solution: SolutionPayload,
    base_solution: Optional[np.ndarray] = None,
    *,
    expected_base_version: Optional[int] = None,
) -> Optional[np.ndarray]:
    """Reconstruct a full assignment from either payload form.

    ``base_solution`` is the solution a delta applies to (the retained
    broadcast for TSW→master reports).  Returns ``None`` when the payload
    cannot be decoded: delta without a base, wrong base version, or failed
    checksum — callers ignore such a report rather than adopt a wrong
    solution.
    """
    if solution.is_full:
        return solution.full_solution()
    if base_solution is None:
        return None
    if (
        expected_base_version is not None
        and solution.base_version != expected_base_version
    ):
        return None
    decoded = np.asarray(base_solution, dtype=np.int64).copy()
    for cell_a, cell_b in solution.swap_pairs().tolist():
        decoded[cell_a], decoded[cell_b] = decoded[cell_b], decoded[cell_a]
    if solution_crc(decoded) != solution.target_crc:
        return None
    return decoded


class DeltaEncoder:
    """Sender-side resident tracking: full versus delta shipment per receiver.

    One encoder per sending process; receivers are keyed by any hashable
    identity (worker pid or index).  ``encode`` compares the target against
    the receiver's tracked resident solution and ships the swap-list delta
    when it is small, falling back to a full shipment on first contact, after
    :meth:`invalidate` (the NACK path), or when the diff exceeds
    :attr:`MAX_DELTA_FRACTION` of the cells (divergent solutions — a delta
    would cost more than it saves).
    """

    MAX_DELTA_FRACTION = 0.25

    def __init__(self) -> None:
        self._resident: Dict[Hashable, Tuple[int, np.ndarray]] = {}
        #: Shipment statistics (protocol-overhead benchmark and tests).
        self.full_shipments = 0
        self.delta_shipments = 0
        self.delta_swaps_shipped = 0

    def encode(self, receiver: Hashable, target: np.ndarray, version: int) -> SolutionPayload:
        """Encode ``target`` for ``receiver``, updating the resident record."""
        target = np.asarray(target, dtype=np.int64)
        entry = self._resident.get(receiver)
        payload: Optional[SolutionPayload] = None
        if entry is not None:
            base_version, base = entry
            if base.shape == target.shape:
                swaps = swap_list_between(base, target)
                if swaps.shape[0] <= max(1, int(target.size * self.MAX_DELTA_FRACTION)):
                    payload = SolutionPayload.delta_shipment(
                        swaps, version, base_version, solution_crc(target)
                    )
                    self.delta_shipments += 1
                    self.delta_swaps_shipped += int(swaps.shape[0])
        if payload is None:
            payload = SolutionPayload.full_shipment(target, version)
            self.full_shipments += 1
        self._resident[receiver] = (version, target.copy())
        return payload

    def set_resident(self, receiver: Hashable, version: int, solution: np.ndarray) -> None:
        """Record out-of-band knowledge of a receiver's resident solution.

        Used when the resident state is learned from the protocol itself
        rather than from a previous ``encode`` — e.g. the master records each
        TSW's *reported* solution, which is exactly what the TSW keeps
        resident after reporting.
        """
        self._resident[receiver] = (version, np.asarray(solution, dtype=np.int64).copy())

    def resident_version(self, receiver: Hashable) -> Optional[int]:
        """Version tracked for ``receiver`` (``None`` before first contact)."""
        entry = self._resident.get(receiver)
        return None if entry is None else entry[0]

    def invalidate(self, receiver: Hashable) -> None:
        """Forget a receiver's resident state; the next encode ships full."""
        self._resident.pop(receiver, None)

    # -------------------------------------------------------------- #
    # checkpoint surface: a resumed run must replay the exact same
    # full-versus-delta decisions, so the per-receiver resident
    # bookkeeping is part of the session state.
    # -------------------------------------------------------------- #
    def export_residents(self) -> Dict[Hashable, Tuple[int, np.ndarray]]:
        """Serializable copy of the per-receiver resident records."""
        return {
            receiver: (version, solution.copy())
            for receiver, (version, solution) in self._resident.items()
        }

    def install_residents(
        self, residents: Dict[Hashable, Tuple[int, np.ndarray]]
    ) -> None:
        """Replace the resident records with an :meth:`export_residents` copy."""
        self._resident = {
            receiver: (int(version), np.asarray(solution, dtype=np.int64).copy())
            for receiver, (version, solution) in residents.items()
        }


class ResidentSolution:
    """Receiver side of the delta protocol, shared by both tiers.

    A TSW adopts the master's broadcasts and a CLW its TSW's tasks through
    one :meth:`adopt` call, which owns every receiver decision: first
    contact, full install, the skip for an unchanged solution, the exact
    delta apply with its checksum, and the version bookkeeping.  ``version``
    is the protocol round of the solution held resident (``-1`` before
    first contact and after a failed checksum).
    """

    def __init__(self) -> None:
        self.version = -1

    def adopt(
        self,
        problem: SearchProblem,
        evaluator: Optional[SwapEvaluator],
        payload: SolutionPayload,
    ) -> Tuple[Optional[SwapEvaluator], Optional[int]]:
        """Apply ``payload`` to ``evaluator``; return ``(evaluator, applied)``.

        ``applied`` is ``-1`` for a full install (on first contact a full
        payload builds the evaluator from ``problem``), the number of delta
        swaps applied otherwise (0: the solution is unchanged and nothing is
        installed), or ``None`` when the sender must re-send in full: a delta
        on first contact or against a base this receiver does not hold, or
        one whose result fails its checksum.  A failed checksum leaves the
        evaluator on a wrong solution and resets ``version`` to ``-1``; the
        full re-send overwrites it.
        """
        if payload.is_full:
            solution = payload.full_solution()
            if evaluator is None:
                evaluator = problem.make_evaluator(solution)
            else:
                evaluator.install_solution(solution)
            applied = -1
        elif evaluator is None or payload.base_version != self.version:
            return evaluator, None
        else:
            swaps = payload.swap_pairs()
            applied = int(swaps.shape[0])
            if applied:
                evaluator.apply_swaps(swaps, exact_timing=True)
                if solution_crc(evaluator.snapshot()) != payload.target_crc:
                    self.version = -1
                    return evaluator, None
        self.version = payload.version
        return evaluator, applied
