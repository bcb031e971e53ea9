"""The ``SearchProblem`` / ``SwapEvaluator`` protocols.

These are structural (:class:`typing.Protocol`) contracts — a domain
implements them by shape, without importing this module.  They codify what
the engine implicitly required of the placement evaluator all along:

* **items** — a solution assigns ``num_cells`` *items* (standard cells,
  facilities, jobs, ...) to distinct positions; the engine keeps the paper's
  term "cell" for the generic item throughout (``CellRange``,
  ``cell_a``/``cell_b``, ...);
* **swaps** — the elementary move exchanges the positions of two items and
  is its own inverse;
* **incremental evaluation** — trial swaps are scored *in batch* against the
  current solution without mutating it, commits update internal caches in
  place, and short swap sequences (the delta protocol's wire form) can be
  applied in bulk;
* **snapshots** — the full mutable state can be saved and restored with
  array copies, so the search rewinds trial compound moves cheaply;
  :func:`capture_evaluator` and :func:`revive_evaluator` carry it across a
  checkpoint for every process of the search (master, TSW, CLW, serial).

The conformance suite (``tests/core/test_problem_contract.py``) runs the
same battery — batch == scalar == from-scratch, delta-adopt == full-install,
empty-input no-ops, snapshot round-trips — over every registered domain.
"""

from __future__ import annotations

import pickle
from typing import Any, Optional, Protocol, Tuple, runtime_checkable

import numpy as np

__all__ = ["SwapEvaluator", "SearchProblem", "capture_evaluator", "revive_evaluator"]


@runtime_checkable
class SwapEvaluator(Protocol):
    """Incremental evaluator of one mutable solution.

    An evaluator owns a solution (an assignment of ``num_cells`` items to
    distinct positions, exposed as an integer array) together with whatever
    incremental caches the domain's cost function needs.  All mutation goes
    through the methods below so the caches stay consistent.

    ``evaluations`` is a mutable work counter (trials + commits); the
    simulated cluster charges it as the compute a worker consumed.
    """

    evaluations: int

    # ---- identity ----------------------------------------------------- #
    @property
    def num_cells(self) -> int:
        """Number of swappable items in the solution."""
        ...

    @property
    def instance_name(self) -> str:
        """Name of the problem instance (seeds worker RNG streams)."""
        ...

    # ---- cost --------------------------------------------------------- #
    def cost(self) -> float:
        """Scalar cost of the current solution (lower is better, cached)."""
        ...

    def exact_cost(self) -> float:
        """Scalar cost with any incremental surrogate refreshed exactly."""
        ...

    def objectives(self) -> Any:
        """Domain-specific crisp objective values of the current solution."""
        ...

    # ---- swap evaluation / mutation ----------------------------------- #
    def evaluate_swaps_batch(self, pairs) -> np.ndarray:
        """Costs the solution would have under each candidate swap of a batch.

        ``pairs`` is any ``(n, 2)`` array-like of item pairs.  Each pair is
        scored independently against the *current* solution — semantically
        ``n`` scalar trials, computed in one vectorised pass.  Nothing is
        mutated.  An empty batch returns an empty ``float64`` array.

        **Mask-aware batch contract** (what the tabu iteration driver builds
        on): the result is always a dense ``float64`` array aligned
        with ``pairs``, so the driver can combine it element-wise with a
        tabu/aspiration admissibility mask and select the best admissible
        swap via ``argmin`` without consulting the evaluator again.  Scoring
        must also be *batch-size invariant* — a pair's cost is bit-identical
        whether it is scored alone or inside a larger batch.
        """
        ...

    def evaluate_swap(self, cell_a: int, cell_b: int) -> float:
        """Cost the solution would have if the two items swapped positions."""
        ...

    def commit_swap(self, cell_a: int, cell_b: int) -> float:
        """Apply one swap, update all caches, and return the new cost."""
        ...

    def apply_swaps(self, pairs, *, exact_timing: bool = False) -> float:
        """Commit a short swap sequence against the resident state in bulk.

        This is the delta form of the parallel protocol.  With
        ``exact_timing=True`` the evaluator must end in the same state a full
        :meth:`install_solution` of the resulting assignment would produce
        (delta shipment and full shipment are interchangeable), and the
        adoption does not count toward :attr:`evaluations`.  An empty
        sequence is a no-op apart from that exactness guarantee.
        """
        ...

    def undo_swaps(self, pairs) -> float:
        """Reverse a committed swap sequence (a swap is its own inverse).

        ``pairs`` is the same sequence previously applied (via per-swap
        commits or :meth:`apply_swaps`); the evaluator re-applies it in
        reverse order as one bulk update, restoring the prior *assignment*
        exactly.  Incremental cost surrogates may re-accumulate (the scalar
        cost is approximately — not necessarily bit-identically — the prior
        cost), and the reversal does not count toward :attr:`evaluations`.
        The search drivers prefer state-snapshot rewinds (which *are*
        bit-exact and benched faster); this is the protocol's copy-free
        alternative for memory-constrained callers.
        """
        ...

    def install_solution(self, assignment: np.ndarray) -> float:
        """Adopt a whole new assignment and rebuild every cache."""
        ...

    # ---- snapshots ---------------------------------------------------- #
    def snapshot(self) -> np.ndarray:
        """Copy of the current assignment, suitable for message passing."""
        ...

    def save_state(self) -> Any:
        """Opaque snapshot of the full mutable state (cheap array copies)."""
        ...

    def restore_state(self, state: Any) -> None:
        """Rewind to a :meth:`save_state` snapshot (``evaluations`` stays)."""
        ...

    # ---- neighbourhood hooks ------------------------------------------ #
    def diversification_distances(
        self, cell: int, candidates: np.ndarray
    ) -> np.ndarray:
        """How far each candidate item's position is from ``cell``'s.

        The Kelly-style diversification step swaps a rarely-moved item with
        the *farthest* of a handful of sampled partners; "far" is a domain
        notion (Manhattan distance between slots for placement, location
        distance for QAP).  Returns one non-negative float per candidate.
        """
        ...


@runtime_checkable
class SearchProblem(Protocol):
    """Immutable problem description shared by all processes of one run.

    Every process of the parallel search builds its own mutable state
    (evaluator, tabu memory) but refers to the same problem instance; the
    real backends ship it to every spawned worker (once, at spawn time — via
    shared memory when the domain opts in with ``__shm_export__``, see
    :mod:`repro.pvm.shm`).  Instances must be picklable and must compute a
    *reference* cost anchor once so per-worker costs are comparable.
    """

    @property
    def name(self) -> str:
        """Name of the underlying instance (circuits, QAPLIB files, ...)."""
        ...

    @property
    def num_cells(self) -> int:
        """Number of swappable items in a solution."""
        ...

    def make_evaluator(self, assignment: np.ndarray) -> SwapEvaluator:
        """Build a private evaluator for a worker, bound to ``assignment``."""
        ...

    def random_solution(self, seed: int) -> np.ndarray:
        """A deterministic random initial assignment (used by the master)."""
        ...

    # ---- simulated work accounting ------------------------------------ #
    def install_work_units(self) -> float:
        """Work units charged for installing a received full solution."""
        ...

    def adopt_work_units(self, num_swaps: int) -> float:
        """Work units charged for applying a swap-list delta."""
        ...


def ensure_search_problem(obj: Any) -> None:
    """Raise ``TypeError`` unless ``obj`` satisfies :class:`SearchProblem`.

    ``runtime_checkable`` protocols only verify method *presence*; this is
    still the right early guard for the runner and the registry — a missing
    hook fails at entry with a clear message instead of deep inside a worker
    process.
    """
    missing = [
        attr
        for attr in (
            "name",
            "num_cells",
            "make_evaluator",
            "random_solution",
            "install_work_units",
            "adopt_work_units",
        )
        if not hasattr(obj, attr)
    ]
    if missing:
        raise TypeError(
            f"{type(obj).__name__} does not implement SearchProblem: "
            f"missing {', '.join(missing)}"
        )


def capture_evaluator(evaluator: Optional[SwapEvaluator]) -> Tuple[np.ndarray, bytes, int]:
    """``(assignment, pickled save_state(), evaluations)`` of an evaluator.

    The exact internal state is kept, not just the assignment: a
    delta-adopted evaluator agrees with a fresh install only to float
    tolerance, so a bit-identical resume must restore the caches as they
    were.  A worker that has no evaluator yet captures an empty triple.
    """
    if evaluator is None:
        return np.empty(0, np.int64), b"", 0
    return (
        evaluator.snapshot(),
        pickle.dumps(evaluator.save_state(), protocol=4),
        int(evaluator.evaluations),
    )


def revive_evaluator(
    problem: SearchProblem,
    assignment: np.ndarray,
    state: bytes,
    evaluations: Optional[int] = None,
) -> SwapEvaluator:
    """Rebuild the evaluator a :func:`capture_evaluator` triple describes.

    ``evaluations`` of ``None`` keeps the fresh evaluator's own count.
    """
    evaluator = problem.make_evaluator(np.asarray(assignment, dtype=np.int64))
    evaluator.restore_state(pickle.loads(state))
    if evaluations is not None:
        evaluator.evaluations = int(evaluations)
    return evaluator
