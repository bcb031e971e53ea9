"""Serial tabu-search engine (Figure 1 of the paper).

:class:`TabuSearch` drives a :class:`~repro.core.protocols.SwapEvaluator`
(the placement cost evaluator, the QAP evaluator, or any other registered
domain's) through tabu-search iterations:

1. build one candidate *compound move* from the search's cell range (the
   candidate list :math:`V^*(s)` — in the parallel algorithm each CLW
   contributes one candidate).  A :class:`~repro.tabu.moves.CompoundMoveBuilder`
   draws and scores every step, as a CLW's does, and each step's selection
   already filters tabu pairs (with a vectorised aspiration override) so
   the candidate is built admissible whenever possible;
2. pick the candidate with the lowest resulting cost;
3. accept it if it is not tabu, or if it satisfies the aspiration criterion
   (aspiration by objective: its cost is below the best found so far);
   otherwise fall back to the next-best candidate; if every candidate is
   rejected the iteration stalls;
4. record the accepted move's attributes in the tabu list (one bulk scatter)
   and the moved cells in the frequency memory (one bulk accumulate), and
   update the best solution found so far.  Locally built winners are
   *jumped to* via the end-state snapshot the builder left behind instead of
   re-committing every swap.

The memory is the array-backed :class:`~repro.tabu.tabu_list.ArrayTabuList`
with masked batch selection.  The test suite keeps a reference driver
(``tests/oracles/tabu.py``: the dictionary tabu memory and scalar aspiration
checks); seeded runs of the two walk bit-identical trajectories (enforced by
``tests/tabu/test_driver_identity.py``).

The same class is reused inside the parallel Tabu Search Workers, where the
candidate compound moves come from remote CLWs instead of being generated
locally (see :mod:`repro.parallel.tsw`).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .._rng import make_rng
from ..accel import fuse_admissible
from ..core.protocols import SwapEvaluator
# sample_candidate_pairs_array is not called here (the builder draws every
# step); it stays a module attribute because perfbench's layer tracer
# patches it on this module by name.
from .candidate import CellRange, full_range, sample_candidate_pairs_array  # noqa: F401
from .diversification import diversify
from .moves import CompoundMove, CompoundMoveBuilder
from .params import TabuSearchParams
from .tabu_list import ArrayTabuList, FrequencyMemory
from .termination import TerminationCriteria

__all__ = [
    "StepResult",
    "SearchResult",
    "TabuSearch",
    "TabuSearchState",
]


@dataclass(frozen=True, slots=True)
class StepResult:
    """Outcome of one tabu-search iteration."""

    iteration: int
    accepted: bool
    move: Optional[CompoundMove]
    was_tabu: bool
    used_aspiration: bool
    cost_after: float
    best_cost: float


@dataclass(slots=True)
class SearchResult:
    """Outcome of a whole (serial) tabu-search run."""

    best_cost: float
    best_solution: np.ndarray
    iterations: int
    evaluations: int
    #: (iteration, evaluations, current cost, best cost) after every step.
    trace: List[Tuple[int, int, float, float]] = field(default_factory=list)


@dataclass(frozen=True)
class TabuSearchState:
    """Serializable snapshot of a :class:`TabuSearch`'s private state.

    Captures everything the search object itself owns — RNG bit-generator
    state, tabu-list export (shared wire format of both memory layouts),
    frequency counts, iteration/stall counters and the best-so-far — but
    *not* the evaluator: the evaluator's incremental caches are checkpointed
    separately (``evaluator.save_state()`` blobs) so a resumed run replays
    the exact same incremental code paths bit-for-bit.
    """

    rng_state: Dict[str, Any]
    tabu_payload: Tuple[Tuple[str, Tuple[int, ...], int], ...]
    tabu_tenure: int
    frequency_counts: np.ndarray
    iteration: int
    stall: int
    best_cost: float
    best_solution: np.ndarray


class TabuSearch:
    """Tabu search over permutation solutions, bound to one evaluator.

    Parameters
    ----------
    evaluator:
        Owns the solution and the incremental cost state (any
        :class:`~repro.core.protocols.SwapEvaluator`).
    params:
        Search parameters (tenure, ``m``, ``d``, ...).
    cell_range:
        Range from which the first cell of every candidate pair is drawn;
        defaults to all cells (the serial algorithm).
    seed:
        Seed of the worker's private random stream.
    """

    def __init__(
        self,
        evaluator: SwapEvaluator,
        params: TabuSearchParams | None = None,
        *,
        cell_range: Optional[CellRange] = None,
        seed: int = 0,
    ) -> None:
        self._evaluator = evaluator
        self._params = params or TabuSearchParams()
        self._range = cell_range or full_range(evaluator.num_cells)
        self._range_array = self._range.as_array()
        self._rng = make_rng(seed, "tabu-search", evaluator.instance_name)
        self._tabu = ArrayTabuList(self._params.tabu_tenure, evaluator.num_cells)
        self._frequency = FrequencyMemory(evaluator.num_cells)
        self._iteration = 0
        self._stall = 0
        self._best_cost = evaluator.cost()
        self._best_solution = evaluator.snapshot()

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    def set_cell_range(self, cell_range: CellRange) -> None:
        """Re-point the search at a new cell range (elastic re-assignment).

        The fault-tolerant master re-partitions a dead worker's range over
        the survivors mid-run; the surviving searches adopt their widened
        range here.
        """
        self._range = cell_range
        self._range_array = cell_range.as_array()

    @property
    def cell_range(self) -> CellRange:
        """Range the first cell of every candidate pair is drawn from."""
        return self._range

    @property
    def evaluator(self) -> SwapEvaluator:
        """The bound cost evaluator."""
        return self._evaluator

    @property
    def params(self) -> TabuSearchParams:
        """Search parameters."""
        return self._params

    @property
    def tabu_list(self):
        """Short-term memory (:class:`ArrayTabuList`)."""
        return self._tabu

    @property
    def frequency_memory(self) -> FrequencyMemory:
        """Long-term (frequency) memory."""
        return self._frequency

    @property
    def iteration(self) -> int:
        """Number of completed iterations."""
        return self._iteration

    @property
    def current_cost(self) -> float:
        """Cost of the current solution."""
        return self._evaluator.cost()

    @property
    def best_cost(self) -> float:
        """Best cost found so far."""
        return self._best_cost

    @property
    def best_solution(self) -> np.ndarray:
        """Copy of the best assignment found so far."""
        return self._best_solution.copy()

    @property
    def rng(self) -> np.random.Generator:
        """The worker's private random stream."""
        return self._rng

    # ------------------------------------------------------------------ #
    # state manipulation used by the parallel protocol
    # ------------------------------------------------------------------ #
    def adopt_tabu_list(
        self,
        payload: Sequence[Tuple[str, Tuple[int, ...], int]],
        tenure: Optional[int] = None,
    ):
        """Install a tabu list received from outside (master / parent TSW).

        The paper's protocol ships the incumbent's tabu list together with
        the solution; this is the public hook for it — backends must not
        reach into the search's internals.  ``payload`` is
        :meth:`ArrayTabuList.to_payload` output; ``tenure`` defaults to the
        search's configured ``tabu_tenure``.  The installed list is returned.
        """
        effective_tenure = self._params.tabu_tenure if tenure is None else tenure
        self._tabu = ArrayTabuList.from_payload(
            payload, effective_tenure, self._evaluator.num_cells
        )
        return self._tabu

    def export_state(self) -> TabuSearchState:
        """Snapshot the search's own serializable state (see
        :class:`TabuSearchState` — the evaluator is deliberately excluded)."""
        return TabuSearchState(
            rng_state=copy.deepcopy(self._rng.bit_generator.state),
            tabu_payload=self._tabu.to_payload(),
            tabu_tenure=self._tabu.tenure,
            frequency_counts=self._frequency.counts.copy(),
            iteration=self._iteration,
            stall=self._stall,
            best_cost=self._best_cost,
            best_solution=self._best_solution.copy(),
        )

    def install_state(self, state: TabuSearchState) -> None:
        """Restore a snapshot produced by :meth:`export_state`.

        The evaluator must already be positioned on the checkpointed
        solution (restored by the caller); this installs RNG, memories and
        counters so the next :meth:`step` continues the original trajectory
        bit-for-bit.
        """
        self._rng.bit_generator.state = copy.deepcopy(state.rng_state)
        self.adopt_tabu_list(state.tabu_payload, tenure=state.tabu_tenure)
        # Restore the lazy-expiry watermark so live-set views (payload,
        # len) match the checkpointed list exactly.
        self._tabu.expire(state.iteration)
        self._frequency.load_counts(state.frequency_counts)
        self._iteration = int(state.iteration)
        self._stall = int(state.stall)
        self._best_cost = float(state.best_cost)
        self._best_solution = np.asarray(state.best_solution, dtype=np.int64).copy()

    def note_best(self) -> None:
        """Record the current solution as best if it improves on the incumbent."""
        cost = self._evaluator.cost()
        if cost < self._best_cost:
            self._best_cost = cost
            self._best_solution = self._evaluator.snapshot()

    def diversify(self, depth: Optional[int] = None) -> None:
        """Run the Kelly-style diversification step within this worker's range.

        The effective depth is capped at a quarter of the worker's range so
        that small circuits (or finely partitioned ranges) are not perturbed
        beyond recovery — diversification should relocate a few rarely-moved
        cells, not scramble the whole region.
        """
        depth = self._params.diversification_depth if depth is None else depth
        depth = min(depth, max(1, len(self._range) // 4))
        if depth <= 0:
            return
        diversify(
            self._evaluator,
            self._range,
            depth=depth,
            rng=self._rng,
            frequency=self._frequency,
        )
        self.note_best()

    # ------------------------------------------------------------------ #
    # the core iteration
    # ------------------------------------------------------------------ #
    def _admissible_fn(
        self, iteration: int, best_cost: float
    ) -> Callable[[np.ndarray, np.ndarray], Optional[np.ndarray]]:
        """Per-step admissibility hook: non-tabu pairs, or tabu-but-aspiring.

        Handed to the compound-move builder so tabu filtering happens
        *inside* the candidate scoring pass — the builder's argmin then
        selects the best admissible swap directly.  The mask is one
        expiry-vector gather plus one array compare against the best cost.
        """
        tabu = self._tabu

        def admissible(pairs: np.ndarray, costs: np.ndarray) -> Optional[np.ndarray]:
            mask = tabu.is_tabu_mask(pairs, iteration)
            if not mask.any():
                return None
            return fuse_admissible(mask, costs < best_cost)

        return admissible

    def _build_candidate(self) -> Tuple[CompoundMove, object]:
        """Generate the iteration's candidate compound move and its end state.

        The move is built with per-step tabu/aspiration filtering, its end
        state is captured as a cheap snapshot, and the evaluator is rewound
        to the start with a state restore.  The returned end state lets the
        accept path *jump* onto the candidate instead of re-committing its
        swaps (copy-light rewinds both ways).
        """
        evaluator = self._evaluator
        params = self._params
        iteration = self._iteration + 1  # the iteration this candidate feeds
        start_state = evaluator.save_state()
        builder = CompoundMoveBuilder(
            evaluator,
            self._range,
            pairs_per_step=params.pairs_per_step,
            depth=params.move_depth,
            early_accept=params.early_accept,
            admissible=self._admissible_fn(iteration, self._best_cost),
            range_array=self._range_array,
        )
        while builder.wants_more_steps():
            builder.step(self._rng)
        candidate = builder.finalize()
        end_state = evaluator.save_state()
        evaluator.restore_state(start_state)
        return candidate, end_state

    def consider_candidates(
        self,
        candidates: Sequence[CompoundMove],
        end_states: Optional[Sequence[object]] = None,
    ) -> StepResult:
        """Select and (maybe) accept the best candidate move.

        This is the acceptance logic shared by the serial engine and the TSW
        process (whose candidates arrive from remote CLWs).  The evaluator
        must be positioned on the solution the candidates were built from.
        A locally built candidate with an end-state token is accepted by
        restoring that token (a handful of array copies); a remote candidate
        is bulk-committed through the evaluator's ``apply_swaps`` path.
        Accepted attributes and move counts are recorded in bulk.
        """
        self._iteration += 1
        iteration = self._iteration
        # sweep lapsed attributes once per iteration, accepted or stalled
        # (amortised O(dropped) for the dict memory, lazy no-op for the
        # array memory), so both memories expose the same live set
        self._tabu.expire(iteration)
        current_cost = self._evaluator.cost()
        order = sorted(range(len(candidates)), key=lambda k: candidates[k].cost_after)

        for index in order:
            move = candidates[index]
            if not move.swaps:
                continue
            pairs = move.pairs_array()
            is_tabu = self._tabu.is_tabu_pairs(pairs, iteration)
            used_aspiration = False
            if is_tabu:
                if not move.cost_after < self._best_cost:
                    continue
                used_aspiration = True
            # accept: land on the move's end state and update the memories
            if end_states is not None and end_states[index] is not None:
                self._evaluator.restore_state(end_states[index])
            else:
                self._evaluator.apply_swaps(pairs)
            self._frequency.record_swaps(pairs)
            self._tabu.record_pairs(pairs, iteration)
            cost_after = self._evaluator.cost()
            if cost_after < self._best_cost:
                self._best_cost = cost_after
                self._best_solution = self._evaluator.snapshot()
                self._stall = 0
            else:
                self._stall += 1
            return StepResult(
                iteration=iteration,
                accepted=True,
                move=move,
                was_tabu=is_tabu,
                used_aspiration=used_aspiration,
                cost_after=cost_after,
                best_cost=self._best_cost,
            )

        # every candidate was tabu (and failed aspiration) or empty
        self._stall += 1
        return StepResult(
            iteration=iteration,
            accepted=False,
            move=None,
            was_tabu=True,
            used_aspiration=False,
            cost_after=current_cost,
            best_cost=self._best_cost,
        )

    def step(self) -> StepResult:
        """Run one complete tabu-search iteration (build + accept)."""
        candidate, end_state = self._build_candidate()
        return self.consider_candidates([candidate], [end_state])

    def run(
        self,
        termination: TerminationCriteria | None = None,
        *,
        record_trace: bool = True,
    ) -> SearchResult:
        """Iterate until the termination criteria are met."""
        termination = termination or TerminationCriteria(
            max_iterations=self._params.local_iterations
        )
        trace: List[Tuple[int, int, float, float]] = []
        while not termination.should_stop(
            iteration=self._iteration, best_cost=self._best_cost, stall=self._stall
        ):
            result = self.step()
            if record_trace:
                trace.append(
                    (
                        result.iteration,
                        self._evaluator.evaluations,
                        result.cost_after,
                        result.best_cost,
                    )
                )
        return SearchResult(
            best_cost=self._best_cost,
            best_solution=self.best_solution,
            iterations=self._iteration,
            evaluations=self._evaluator.evaluations,
            trace=trace,
        )
