"""Moves: single swaps and compound moves.

The elementary move of the paper is a *swap* of two cells.  A CLW does not
apply single swaps blindly; it builds a **compound move** of depth ``d``:

1. at each of the ``d`` steps it draws all ``m`` candidate pairs up front
   (first cell from its range, second from anywhere) and scores them with a
   single batched evaluation (the evaluator's ``evaluate_swaps_batch``);
2. it commits the best of the ``m`` trials and continues from there;
3. if at any step the accumulated cost is already better than the cost at the
   start of the compound move, it stops early ("the move is accepted without
   further investigation");
4. the final compound move is the prefix of committed swaps that achieved the
   best cost (the CLW reports the best solution it saw, which may be an
   intermediate prefix rather than the full depth).

:class:`CompoundMoveBuilder` operates on a
:class:`~repro.core.protocols.SwapEvaluator`, which owns the solution and the
incremental objective caches — any registered problem domain works.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..accel import masked_argmin
from ..core.protocols import SwapEvaluator
from ..errors import TabuSearchError
from .candidate import CellRange, sample_candidate_pairs_array

__all__ = [
    "SwapMove",
    "CompoundMove",
    "CompoundMoveBuilder",
]

#: Admissibility hook of the mask-aware builder: given the step's candidate
#: pairs ``(m, 2)`` and their batch-evaluated costs ``(m,)``, return a boolean
#: mask of pairs the driver allows (non-tabu, or tabu-but-aspiring), or
#: ``None`` for "everything is admissible".
AdmissibleFn = Callable[[np.ndarray, np.ndarray], Optional[np.ndarray]]


@dataclass(frozen=True, slots=True)
class SwapMove:
    """One evaluated swap: the pair of cells and the cost after applying it."""

    cell_a: int
    cell_b: int
    cost_after: float

    @property
    def pair(self) -> Tuple[int, int]:
        """Canonical (sorted) cell pair."""
        return (self.cell_a, self.cell_b) if self.cell_a <= self.cell_b else (self.cell_b, self.cell_a)


@dataclass(slots=True)
class CompoundMove:
    """A sequence of swaps committed by a CLW during one local investigation.

    Attributes
    ----------
    swaps:
        The committed swaps, in application order (possibly truncated to the
        best prefix).
    cost_before:
        Scalar cost of the solution before the compound move.
    cost_after:
        Scalar cost after applying ``swaps``.
    trials:
        Number of trial evaluations spent building the move (work accounting).
    truncated_early:
        Whether the early-acceptance rule stopped the move before full depth.
    """

    swaps: List[SwapMove] = field(default_factory=list)
    cost_before: float = 0.0
    cost_after: float = 0.0
    trials: int = 0
    truncated_early: bool = False

    @property
    def depth(self) -> int:
        """Number of swaps in the move."""
        return len(self.swaps)

    @property
    def gain(self) -> float:
        """Cost reduction achieved (positive = improvement)."""
        return self.cost_before - self.cost_after

    @property
    def is_improving(self) -> bool:
        """Whether the move improves on the starting cost."""
        return self.cost_after < self.cost_before

    def pairs(self) -> List[Tuple[int, int]]:
        """The swapped cell pairs in application order."""
        return [(s.cell_a, s.cell_b) for s in self.swaps]

    def pairs_array(self) -> np.ndarray:
        """The swapped cell pairs as an ``(depth, 2)`` int64 array."""
        if not self.swaps:
            return np.zeros((0, 2), dtype=np.int64)
        return np.array([(s.cell_a, s.cell_b) for s in self.swaps], dtype=np.int64)


class CompoundMoveBuilder:
    """Step-by-step construction of a compound move.

    The serial engine runs the steps back to back; a Candidate List Worker,
    however, must be interruptible between steps — when its parent TSW asks
    for an early report (the heterogeneous synchronisation of Section 4.2)
    the CLW stops exploring and reports whatever best prefix it has.  The
    builder exposes exactly that step granularity.

    Usage::

        builder = CompoundMoveBuilder(evaluator, cell_range,
                                      pairs_per_step=5, depth=3)
        while builder.wants_more_steps():
            builder.step(rng)
            # ... check for interrupts here ...
        move = builder.finalize()
    """

    def __init__(
        self,
        evaluator: SwapEvaluator,
        cell_range: CellRange,
        *,
        pairs_per_step: int,
        depth: int,
        early_accept: bool = True,
        admissible: Optional[AdmissibleFn] = None,
        range_array: Optional[np.ndarray] = None,
    ) -> None:
        if pairs_per_step <= 0:
            raise TabuSearchError(f"pairs_per_step must be positive, got {pairs_per_step}")
        if depth <= 0:
            raise TabuSearchError(f"depth must be positive, got {depth}")
        self._evaluator = evaluator
        self._range = cell_range
        # the driver passes the range as a pre-built array so per-iteration
        # builder construction does not re-convert the cell tuple
        self._range_array = range_array if range_array is not None else cell_range.as_array()
        self._pairs_per_step = pairs_per_step
        self._depth = depth
        self._early_accept = early_accept
        self._admissible = admissible
        self._seeded_pairs: Optional[np.ndarray] = None
        self._seeded_costs: Optional[np.ndarray] = None
        self._cost_before = evaluator.cost()
        self._committed: List[SwapMove] = []
        # The best prefix is the shortest non-empty prefix with the lowest
        # cost: even when every prefix degrades the cost, the CLW must still
        # report a (least-degrading) move — tabu search relies on accepting
        # bad moves.  A state snapshot is kept at the best prefix so finalize
        # can rewind with array copies instead of reverse commits.
        self._best_prefix_len = 0
        self._best_prefix_cost = float("inf")
        self._best_prefix_state = None
        self._trials = 0
        self._truncated_early = False
        self._finalized = False

    @property
    def cost_before(self) -> float:
        """Cost of the solution the move is being built from."""
        return self._cost_before

    @property
    def trials(self) -> int:
        """Trial evaluations spent so far."""
        return self._trials

    def wants_more_steps(self) -> bool:
        """Whether another :meth:`step` call would do anything."""
        return (
            not self._finalized
            and not self._truncated_early
            and len(self._committed) < self._depth
        )

    def seed_step(self, pairs: np.ndarray, costs: np.ndarray) -> None:
        """Pre-load the next step's candidate pairs and their batch costs.

        The iteration driver draws and scores the *first* step's pairs
        itself and hands them over here; the next :meth:`step` consumes them
        without sampling or re-evaluating.
        """
        if self._committed or self._seeded_pairs is not None:
            raise TabuSearchError("seed_step() is only valid before the first step")
        self._seeded_pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        self._seeded_costs = np.asarray(costs, dtype=np.float64)
        if self._seeded_pairs.shape[0] != self._seeded_costs.shape[0]:
            raise TabuSearchError("seeded pairs and costs must have matching length")

    def step(self, rng: np.random.Generator) -> int:
        """Trial ``pairs_per_step`` candidates, commit the best; returns trials used.

        The best candidate is the lowest-cost *admissible* pair when an
        admissibility hook is installed (tabu-and-aspiration filtering
        pushed into the scoring pass); with every pair masked out, the step
        falls back to the overall best — the builder must always commit
        something, and the driver's move-level tabu check still guards the
        final acceptance.
        """
        if self._finalized:
            raise TabuSearchError("step() called after finalize()")
        if not self.wants_more_steps():
            return 0
        if self._seeded_pairs is not None:
            pairs, costs = self._seeded_pairs, self._seeded_costs
            self._seeded_pairs = None
            self._seeded_costs = None
        else:
            pairs = sample_candidate_pairs_array(
                self._range_array, self._evaluator.num_cells, self._pairs_per_step, rng
            )
            costs = self._evaluator.evaluate_swaps_batch(pairs)
        self._trials += len(pairs)
        if len(pairs) == 0:  # pragma: no cover - samplers never return empty
            return 0
        mask = self._admissible(pairs, costs) if self._admissible is not None else None
        # The fused masked-argmin select is an accel kernel: first-minimum
        # tie-break, overall argmin when every candidate is masked out.  It
        # stays a module attribute here, looked up per call, so perfbench's
        # layer tracer can patch it.
        best_index = masked_argmin(costs, mask)
        best = SwapMove(
            cell_a=int(pairs[best_index, 0]),
            cell_b=int(pairs[best_index, 1]),
            cost_after=float(costs[best_index]),
        )
        self._evaluator.commit_swap(best.cell_a, best.cell_b)
        self._committed.append(best)
        current_cost = self._evaluator.cost()
        new_best = current_cost < self._best_prefix_cost
        if new_best:
            self._best_prefix_cost = current_cost
            self._best_prefix_len = len(self._committed)
        if self._early_accept and current_cost < self._cost_before:
            self._truncated_early = True
        # Snapshot the new best prefix only when a later step could commit
        # past it — on the final step (or an early accept, the common case)
        # finalize ends exactly here and the copy would be discarded.
        if new_best and self.wants_more_steps():
            self._best_prefix_state = self._evaluator.save_state()
        return len(pairs)

    def finalize(self) -> CompoundMove:
        """Roll back to the best prefix and return the resulting move."""
        if self._finalized:
            raise TabuSearchError("finalize() called twice")
        self._finalized = True
        # Rewind to the best prefix so the evaluator ends on the best solution
        # seen during the exploration — a snapshot restore, not a chain of
        # reverse commits.
        if len(self._committed) > self._best_prefix_len:
            del self._committed[self._best_prefix_len:]
            self._evaluator.restore_state(self._best_prefix_state)
        return CompoundMove(
            swaps=list(self._committed),
            cost_before=self._cost_before,
            cost_after=self._evaluator.cost(),
            trials=self._trials,
            truncated_early=self._truncated_early,
        )
