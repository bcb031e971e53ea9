"""QAP swap evaluator and shared problem description.

:class:`QAPEvaluator` implements the full
:class:`~repro.core.protocols.SwapEvaluator` contract — the same surface the
placement :class:`~repro.placement.cost.CostEvaluator` exposes — so the
serial engine and the whole parallel stack (batched CLW trials, delta
protocol, shared-memory shipping) run QAP unchanged:

* **batch swap-delta kernel** — ``evaluate_swaps_batch(pairs)`` scores a
  whole candidate list with the classic O(n)-per-pair QAP delta, vectorised
  over the batch: for ``m`` pairs it gathers the ``(m, n)`` flow rows/columns
  of the swapped facilities and the matching distance rows of their
  locations, computes both rank-one correction sums in two fused array
  passes and fixes up the four corner terms — no Python loop over pairs,
  and nothing is mutated;
* **exact commits** — ``commit_swap`` advances the resident cost by the same
  delta; ``apply_swaps(..., exact_timing=True)`` (the delta-protocol adopt
  path) finishes with a from-scratch O(n^2) refresh so delta shipment and
  full shipment land in bit-identical states;
* **snapshots** — ``save_state``/``restore_state`` are two scalars and one
  array copy, which keeps compound-move rewinds cheap.

Costs are normalised by the problem's *reference* cost (a seeded random
solution scored once when the problem is built, mirroring the placement
domain's reference objective vector), so every worker of a parallel run
reports comparable O(1) costs and ``ParallelSearchResult.improvement`` means
the same thing in both domains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ... import accel
from ..._rng import make_rng
from ...errors import ReproError
from .instance import QAPInstance

__all__ = [
    "QAPObjectives",
    "QAPEvaluator",
    "QAPProblem",
    "restore_shared_qap",
]


@dataclass(frozen=True, slots=True)
class QAPObjectives:
    """Crisp objective values of a QAP solution (one objective: total flow cost)."""

    flow_cost: float

    def as_dict(self) -> Dict[str, float]:
        """Mapping from objective name to value (mirrors ``ObjectiveVector``)."""
        return {"flow_cost": self.flow_cost}


@dataclass(frozen=True, slots=True)
class QAPEvaluatorState:
    """Opaque snapshot of a :class:`QAPEvaluator` (``save_state`` output)."""

    assignment: np.ndarray
    raw_cost: float


class QAPEvaluator:
    """Incremental QAP cost of one facility→location permutation.

    Parameters
    ----------
    instance:
        The immutable flow/distance matrices.
    assignment:
        Initial permutation (``assignment[facility] = location``).
    reference_cost:
        Raw cost anchoring the normalised scalar cost; all workers of one
        run must share it.  Defaults to the initial assignment's cost.
    """

    #: Distinct batch sizes whose scratch blocks are kept before the pool
    #: is dropped wholesale — a tiny cache bounds memory without an
    #: eviction policy.
    MAX_SCRATCH_KEYS = 8

    def __init__(
        self,
        instance: QAPInstance,
        assignment: np.ndarray,
        *,
        reference_cost: Optional[float] = None,
    ) -> None:
        self._instance = instance
        self._symmetric = instance.is_symmetric
        self._assignment = self._validated(assignment)
        self._raw = instance.cost_of(self._assignment)
        reference = self._raw if reference_cost is None else float(reference_cost)
        self._scale = 1.0 / max(reference, 1e-9)
        self._reference_cost = reference
        # The batch kernel's (4, m, n) scratch blocks, keyed by batch size m
        # (the driver only alternates between a handful of sizes).
        self._scratch: Dict[int, np.ndarray] = {}
        #: Number of swap evaluations performed (trials + commits); the
        #: simulated cluster charges this as the work a process consumed.
        self.evaluations: int = 0

    def _validated(self, assignment: np.ndarray) -> np.ndarray:
        arr = np.asarray(assignment, dtype=np.int64).copy()
        n = self._instance.n
        if arr.shape != (n,):
            raise ReproError(f"assignment must have shape ({n},), got {arr.shape}")
        if arr.min(initial=0) < 0 or arr.max(initial=-1) >= n:
            raise ReproError("assignment contains out-of-range locations")
        if len(np.unique(arr)) != n:
            raise ReproError("assignment maps two facilities to one location")
        return arr

    # ------------------------------------------------------------------ #
    # identity
    # ------------------------------------------------------------------ #
    @property
    def instance(self) -> QAPInstance:
        """The immutable problem data."""
        return self._instance

    @property
    def num_cells(self) -> int:
        """Number of swappable items (facilities)."""
        return self._instance.n

    @property
    def instance_name(self) -> str:
        """Instance name (seeds worker RNG streams)."""
        return self._instance.name

    @property
    def assignment(self) -> np.ndarray:
        """Facility → location permutation (read-only view)."""
        view = self._assignment.view()
        view.flags.writeable = False
        return view

    @property
    def reference_cost(self) -> float:
        """Raw cost anchoring the normalised scalar cost."""
        return self._reference_cost

    # ------------------------------------------------------------------ #
    # cost
    # ------------------------------------------------------------------ #
    def raw_cost(self) -> float:
        """Unnormalised QAP objective of the current solution."""
        return self._raw

    def cost(self) -> float:
        """Scalar cost (raw cost over the reference; lower is better)."""
        return self._raw * self._scale

    def exact_cost(self) -> float:
        """Scalar cost with the resident raw cost refreshed from scratch.

        Commits advance the raw cost by floating-point deltas; the refresh
        makes this evaluator's state canonical again (the master uses it to
        re-score candidate solutions with one authoritative cost).
        """
        self._raw = self._instance.cost_of(self._assignment)
        return self.cost()

    def objectives(self) -> QAPObjectives:
        """Crisp objective values of the current solution."""
        return QAPObjectives(flow_cost=self._raw)

    # ------------------------------------------------------------------ #
    # the batched swap-delta kernel
    # ------------------------------------------------------------------ #
    def _scratch_for(self, batch_size: int) -> Tuple[np.ndarray, ...]:
        """Four reusable float64 ``(batch_size, n)`` buffers for the kernel.

        One pooled ``(4, m, n)`` block per batch size, sliced into the four
        named buffers, so steady-state evaluation allocates no scratch.
        """
        block = self._scratch.get(batch_size)
        if block is None:
            if len(self._scratch) >= self.MAX_SCRATCH_KEYS:
                self._scratch.clear()
            block = np.empty((4, batch_size, self._instance.n), dtype=np.float64)
            self._scratch[batch_size] = block
        return block[0], block[1], block[2], block[3]

    def deltas_for_swaps(self, cells_a: np.ndarray, cells_b: np.ndarray) -> np.ndarray:
        """Raw-cost deltas of swapping each ``(cells_a[i], cells_b[i])`` pair.

        The classic QAP swap delta, vectorised over the batch: with
        ``ra/rb`` the current locations of the swapped facilities and ``p``
        the permutation,

        .. math::
            \\Delta = \\sum_{k \\ne a,b} (F_{ak}-F_{bk})(D_{r_b p_k}-D_{r_a p_k})
                    + \\sum_{k \\ne a,b} (F_{ka}-F_{kb})(D_{p_k r_b}-D_{p_k r_a})
                    + \\text{corner terms for } i,j \\in \\{a, b\\}

        Each pair costs O(n); the whole batch runs as a handful of ``(m, n)``
        array operations in :func:`repro.accel.qap_swap_deltas`, staged
        through the pooled scratch blocks (:meth:`_scratch_for`) and pinned
        bit-identical against its frozen copy (``qap_reference`` in
        ``tests/oracles/kernels.py``).  Self-pairs get a zero delta.
        """
        a = np.asarray(cells_a, dtype=np.int64)
        b = np.asarray(cells_b, dtype=np.int64)
        if a.size == 0:
            return np.zeros(0, dtype=np.float64)
        p = self._assignment
        ra = p[a]
        rb = p[b]
        return accel.qap_swap_deltas(
            self._instance.flow,
            self._instance.distance,
            p,
            a,
            b,
            ra,
            rb,
            symmetric=self._symmetric,
            scratch=self._scratch_for(int(a.size)),
        )

    def evaluate_swaps_batch(self, pairs) -> np.ndarray:
        """Costs the solution would have under each candidate swap of a batch.

        Semantics match the protocol (and the placement evaluator): each
        pair is scored independently against the current solution, nothing
        is mutated, an empty batch returns an empty array, and self-pairs
        report the current cost without counting as work.
        """
        arr = np.asarray(pairs, dtype=np.int64)
        if arr.size == 0:
            return np.zeros(0, dtype=np.float64)
        arr = arr.reshape(-1, 2)
        cells_a = arr[:, 0]
        cells_b = arr[:, 1]
        self.evaluations += int(np.count_nonzero(cells_a != cells_b))
        deltas = self.deltas_for_swaps(cells_a, cells_b)
        return (self._raw + deltas) * self._scale

    def evaluate_swap(self, cell_a: int, cell_b: int) -> float:
        """Single-pair call into :meth:`evaluate_swaps_batch` (bit-identical)."""
        return float(
            self.evaluate_swaps_batch(np.array([[cell_a, cell_b]], dtype=np.int64))[0]
        )

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def commit_swap(self, cell_a: int, cell_b: int) -> float:
        """Apply the swap, advance the resident cost, return the new cost."""
        if cell_a == cell_b:
            return self.cost()
        self.evaluations += 1
        self._raw += float(
            self.deltas_for_swaps(
                np.array([cell_a], dtype=np.int64), np.array([cell_b], dtype=np.int64)
            )[0]
        )
        assignment = self._assignment
        assignment[cell_a], assignment[cell_b] = assignment[cell_b], assignment[cell_a]
        return self.cost()

    def apply_swaps(self, pairs, *, exact_timing: bool = False) -> float:
        """Commit a short swap sequence against the resident state.

        The delta form of the parallel protocol.  With ``exact_timing=True``
        the raw cost is refreshed from scratch afterwards, so the evaluator
        lands in the same state a full :meth:`install_solution` of the target
        would produce — delta shipment and full shipment are interchangeable
        — and the adoption does not count as search work.  Without it, each
        swap counts as one evaluation and the cost advances by deltas only.
        """
        arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if arr.size:
            arr = arr[arr[:, 0] != arr[:, 1]]
        if arr.size == 0:
            if exact_timing:
                self._raw = self._instance.cost_of(self._assignment)
            return self.cost()
        if not exact_timing:
            self.evaluations += len(arr)
        assignment = self._assignment
        for cell_a, cell_b in arr.tolist():
            if not exact_timing:
                self._raw += float(
                    self.deltas_for_swaps(
                        np.array([cell_a], dtype=np.int64),
                        np.array([cell_b], dtype=np.int64),
                    )[0]
                )
            assignment[cell_a], assignment[cell_b] = assignment[cell_b], assignment[cell_a]
        if exact_timing:
            self._raw = self._instance.cost_of(self._assignment)
        return self.cost()

    def undo_swaps(self, pairs) -> float:
        """Reverse a committed swap sequence (a swap is its own inverse).

        Re-applies the pairs in reverse order, restoring the assignment
        exactly; the resident cost advances by the reverse deltas, so it
        matches the prior cost up to floating-point re-accumulation (use
        :meth:`save_state`/:meth:`restore_state` for bit-exact rewinds —
        the search drivers do).  Does not count as search work.
        """
        arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)[::-1]
        evaluations = self.evaluations
        cost = self.apply_swaps(arr)
        self.evaluations = evaluations
        return cost

    def install_solution(self, assignment: np.ndarray) -> float:
        """Adopt a whole new assignment (e.g. received from another worker)."""
        self._assignment = self._validated(assignment)
        self._raw = self._instance.cost_of(self._assignment)
        return self.cost()

    def rebuild(self) -> None:
        """Recompute the resident cost from the current assignment."""
        self._raw = self._instance.cost_of(self._assignment)

    # ------------------------------------------------------------------ #
    # snapshots
    # ------------------------------------------------------------------ #
    def snapshot(self) -> np.ndarray:
        """Copy of the current assignment, suitable for message passing."""
        return self._assignment.copy()

    def save_state(self) -> QAPEvaluatorState:
        """Snapshot the assignment and the resident cost (cheap)."""
        return QAPEvaluatorState(
            assignment=self._assignment.copy(), raw_cost=self._raw
        )

    def restore_state(self, state: QAPEvaluatorState) -> None:
        """Rewind to a :meth:`save_state` snapshot (``evaluations`` stays)."""
        self._assignment[:] = state.assignment
        self._raw = state.raw_cost

    # ------------------------------------------------------------------ #
    # neighbourhood hooks / self-checks
    # ------------------------------------------------------------------ #
    def diversification_distances(
        self, cell: int, candidates: np.ndarray
    ) -> np.ndarray:
        """Location distance from ``cell``'s location to each candidate's.

        Symmetrised so asymmetric distance matrices still yield a meaningful
        "how far apart are these two facilities right now" measure.
        """
        candidates = np.asarray(candidates, dtype=np.int64)
        dist = self._instance.distance
        here = self._assignment[cell]
        there = self._assignment[candidates]
        return 0.5 * (dist[here, there] + dist[there, here])

    def verify_consistency(self, *, atol: float = 1e-6) -> None:
        """Check the resident cost against a from-scratch recomputation."""
        exact = self._instance.cost_of(self._assignment)
        if abs(exact - self._raw) > atol * max(1.0, abs(exact)):
            raise ReproError(
                f"QAP cost drift: resident={self._raw}, exact={exact}"
            )
        if len(np.unique(self._assignment)) != self._instance.n:
            raise ReproError("assignment is no longer a permutation")


# ---------------------------------------------------------------------- #
# the shared problem description
# ---------------------------------------------------------------------- #
@dataclass(frozen=True, slots=True)
class QAPProblem:
    """Immutable QAP problem instance shared by all search processes."""

    instance: QAPInstance
    #: Raw cost of the seeded reference solution; anchors every worker's
    #: normalised scalar cost (the placement domain's reference vector
    #: plays the same role).
    reference_cost: float

    @classmethod
    def from_instance(
        cls, instance: QAPInstance, *, reference_seed: int = 0
    ) -> "QAPProblem":
        """Build a problem, deriving the reference from a random solution."""
        reference = instance.cost_of(
            _random_assignment(instance, seed=reference_seed)
        )
        return cls(instance=instance, reference_cost=float(reference))

    @property
    def name(self) -> str:
        """Instance name."""
        return self.instance.name

    @property
    def num_cells(self) -> int:
        """Number of swappable items (facilities)."""
        return self.instance.n

    def make_evaluator(self, assignment: np.ndarray) -> QAPEvaluator:
        """Build a private evaluator for a worker, bound to ``assignment``."""
        return QAPEvaluator(
            self.instance,
            assignment,
            reference_cost=self.reference_cost,
        )

    def random_solution(self, seed: int) -> np.ndarray:
        """A deterministic random permutation (used by the master)."""
        return _random_assignment(self.instance, seed=seed)

    def install_work_units(self) -> float:
        """Work units charged for installing a received full solution.

        A full install recomputes the O(n^2) objective; the scaling keeps
        the simulated work accounting consistent with the per-swap charges
        (one O(n) swap evaluation == one work unit).
        """
        return max(2.0, self.instance.n / 8.0)

    def adopt_work_units(self, num_swaps: int) -> float:
        """Work units charged for applying a swap-list delta (capped at a
        full install, beyond which the sender ships full anyway)."""
        return min(self.install_work_units(), max(1.0, float(2 * num_swaps)))

    # ------------------------------------------------------------------ #
    # shared-memory shipment (multiprocessing backend)
    # ------------------------------------------------------------------ #
    def __shm_export__(self):
        """Opt in to shared-memory spawn shipment (see :mod:`repro.pvm.shm`).

        The two ``n x n`` matrices go into one shared block; workers rebuild
        the problem around the attached read-only views with zero copies.
        """
        arrays = {"flow": self.instance.flow, "distance": self.instance.distance}
        meta = {"name": self.instance.name, "reference_cost": self.reference_cost}
        return arrays, meta, f"{__name__}:restore_shared_qap"


def restore_shared_qap(arrays, meta) -> QAPProblem:
    """Rebuild a :class:`QAPProblem` from a shared-memory array pack."""
    instance = QAPInstance(
        name=meta["name"], flow=arrays["flow"], distance=arrays["distance"]
    )
    return QAPProblem(instance=instance, reference_cost=meta["reference_cost"])


def _random_assignment(instance: QAPInstance, *, seed: int) -> np.ndarray:
    rng = make_rng(seed, "qap-initial", instance.name)
    return rng.permutation(instance.n).astype(np.int64)
