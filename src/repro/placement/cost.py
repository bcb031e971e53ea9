"""Multi-objective placement cost with fuzzy goal-based aggregation.

This module ties the three crisp objectives — weighted HPWL wirelength,
critical-path delay and row-balanced area — to the fuzzy goal machinery of
:mod:`repro.fuzzy` and exposes the single entry point used by the tabu-search
engine: :class:`CostEvaluator`.

The evaluator owns a :class:`~repro.placement.solution.Placement` together
with the incremental state of every objective, so that

* ``evaluate_swaps_batch(pairs)`` returns the *scalar cost* the solution
  would have under each candidate swap of a batch, in one pass: the pairs'
  context is gathered once (:class:`~repro.placement.solution.SwapBatch`),
  each objective writes its delta row into one ``(3, n)`` block, and one
  fused fuzzy (or weighted-sum) step aggregates the block,
* ``commit_swap(a, b)`` actually applies the swap and keeps all caches
  consistent, and
* ``cost()`` scores the current objective values with the same
  aggregation's scalar form, chosen once per evaluator.

Because the fuzzy aggregation is non-linear, deltas of the scalar cost are
always computed by aggregating the hypothetical objective vector, never by
adding per-objective deltas directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Literal, Optional, Sequence

import numpy as np

from ..errors import CostModelError
from ..fuzzy import FuzzyGoal, FuzzyGoalAggregator
from .area import AreaState
from .layout import Layout
from .solution import Placement, SwapBatch
from .timing import TimingAnalyzer, TimingModel, TimingState
from .wirelength import WirelengthState

__all__ = ["ObjectiveVector", "CostModelParams", "CostEvaluator", "EvaluatorState"]

#: Canonical objective names used throughout the library.
WIRELENGTH = "wirelength"
DELAY = "delay"
AREA = "area"


@dataclass(frozen=True, slots=True)
class ObjectiveVector:
    """Crisp values of the three placement objectives."""

    wirelength: float
    delay: float
    area: float

    def as_dict(self) -> Dict[str, float]:
        """Mapping from objective name to value."""
        return {WIRELENGTH: self.wirelength, DELAY: self.delay, AREA: self.area}

    def dominates(self, other: "ObjectiveVector") -> bool:
        """Pareto dominance: no worse in all objectives and better in one."""
        no_worse = (
            self.wirelength <= other.wirelength
            and self.delay <= other.delay
            and self.area <= other.area
        )
        better = (
            self.wirelength < other.wirelength
            or self.delay < other.delay
            or self.area < other.area
        )
        return no_worse and better


@dataclass(frozen=True, slots=True)
class CostModelParams:
    """Configuration of the multi-objective cost model.

    The ``*_goal_factor`` / ``*_upper_factor`` pairs define, per objective,
    the fuzzy goal relative to the *reference* solution (normally the initial
    placement): the goal is ``goal_factor * reference`` and the membership
    falls to zero at ``upper_factor * reference``.

    ``aggregation`` selects between the paper's fuzzy goal-based cost and a
    plain normalised weighted sum (kept as an ablation baseline).
    """

    wire_goal_factor: float = 0.55
    wire_upper_factor: float = 1.10
    delay_goal_factor: float = 0.70
    delay_upper_factor: float = 1.10
    area_goal_factor: float = 0.85
    area_upper_factor: float = 1.10
    wire_weight: float = 2.0
    delay_weight: float = 1.0
    area_weight: float = 1.0
    beta: float = 0.7
    aggregation: Literal["fuzzy", "weighted_sum"] = "fuzzy"
    timing_refresh_interval: int = 8
    wire_delay_per_unit: float = 0.05

    def __post_init__(self) -> None:
        for label, goal, upper in (
            ("wire", self.wire_goal_factor, self.wire_upper_factor),
            ("delay", self.delay_goal_factor, self.delay_upper_factor),
            ("area", self.area_goal_factor, self.area_upper_factor),
        ):
            if not (0.0 < goal < upper):
                raise CostModelError(
                    f"{label}: need 0 < goal_factor < upper_factor, got {goal}, {upper}"
                )
        for label, weight in (
            ("wire_weight", self.wire_weight),
            ("delay_weight", self.delay_weight),
            ("area_weight", self.area_weight),
        ):
            if weight <= 0:
                raise CostModelError(f"{label} must be positive, got {weight}")
        if not (0.0 <= self.beta <= 1.0):
            raise CostModelError(f"beta must be in [0, 1], got {self.beta}")
        if self.aggregation not in ("fuzzy", "weighted_sum"):
            raise CostModelError(f"unknown aggregation {self.aggregation!r}")
        if self.timing_refresh_interval < 1:
            raise CostModelError("timing_refresh_interval must be >= 1")


@dataclass(frozen=True, slots=True)
class EvaluatorState:
    """Opaque snapshot of a :class:`CostEvaluator`'s full mutable state.

    Produced by :meth:`CostEvaluator.save_state` and consumed by
    :meth:`CostEvaluator.restore_state`; the tabu search uses it to rewind
    trial compound moves without paying full cache updates twice (commit +
    reverse commit) per candidate.
    """

    assignment: tuple
    wirelength: tuple
    area: np.ndarray
    timing: tuple
    cached_cost: Optional[float]


class _WeightedSum:
    """The weighted-sum ablation, ``Σ w·v/r / Σ w``, in a scalar and a block form.

    Each objective value ``v`` is normalised by its reference ``r`` (floored
    at ``1e-9``).  Both forms take the values in goal order (wirelength,
    delay, area) and add the weighted terms left to right, so a column's
    block cost is bit-identical to the scalar cost of that column.
    """

    def __init__(self, params: CostModelParams, reference: ObjectiveVector) -> None:
        self._weights = (params.wire_weight, params.delay_weight, params.area_weight)
        self._norms = tuple(
            max(value, 1e-9) for value in (reference.wirelength, reference.delay, reference.area)
        )
        self._weight_sum = params.wire_weight + params.delay_weight + params.area_weight
        self._weight_rows = np.array([[w] for w in self._weights], dtype=np.float64)
        self._norm_rows = np.array([[r] for r in self._norms], dtype=np.float64)

    def cost(self, values: Sequence[float]) -> float:
        """Cost of one objective vector."""
        total = 0.0
        for value, weight, norm in zip(values, self._weights, self._norms):
            total += weight * value / norm
        return float(total / self._weight_sum)

    def cost_block(self, values: np.ndarray) -> np.ndarray:
        """Costs of a ``(3, n)`` block, one per column; ``values`` is overwritten."""
        values *= self._weight_rows
        values /= self._norm_rows
        total = np.add.reduce(values, axis=0)
        total /= self._weight_sum
        return total


class CostEvaluator:
    """Scalar cost of a placement, with incremental swap evaluation.

    Parameters
    ----------
    placement:
        The (mutable) solution this evaluator is bound to.
    params:
        Cost-model configuration.
    reference:
        Objective values used to anchor the fuzzy goals and the weighted-sum
        normalisation.  Defaults to the objectives of ``placement`` at
        construction time.  All workers of a parallel run must share the same
        reference so their costs are comparable; the master computes it once
        and ships it together with the initial solution.
    """

    def __init__(
        self,
        placement: Placement,
        params: CostModelParams | None = None,
        *,
        reference: Optional[ObjectiveVector] = None,
    ) -> None:
        self._placement = placement
        self._params = params or CostModelParams()
        self._wirelength = WirelengthState(placement)
        analyzer = TimingAnalyzer(
            placement.netlist, TimingModel(self._params.wire_delay_per_unit)
        )
        self._timing = TimingState(
            placement, analyzer, refresh_interval=self._params.timing_refresh_interval
        )
        self._area = AreaState(placement)
        self._reference = reference or self.objectives()
        self._aggregator = self._build_aggregator(self._reference)
        # The one aggregation of this evaluator: cost() uses its scalar form
        # and evaluate_swaps_batch its block form.
        self._scorer = (
            self._aggregator
            if self._params.aggregation == "fuzzy"
            else _WeightedSum(self._params, self._reference)
        )
        #: Number of swap evaluations performed (trials + commits).  The
        #: simulated cluster uses this as the "work units" a process consumed.
        self.evaluations: int = 0
        # Scalar cost of the *current* solution, invalidated on every
        # mutation; avoids re-running the fuzzy aggregation for repeated
        # cost() calls between commits (trial evaluation asks constantly).
        self._cached_cost: Optional[float] = None

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    def _build_aggregator(self, reference: ObjectiveVector) -> FuzzyGoalAggregator:
        p = self._params
        goals = [
            FuzzyGoal.from_reference(
                WIRELENGTH, reference.wirelength,
                goal_factor=p.wire_goal_factor, upper_factor=p.wire_upper_factor,
                weight=p.wire_weight,
            ),
            FuzzyGoal.from_reference(
                DELAY, reference.delay,
                goal_factor=p.delay_goal_factor, upper_factor=p.delay_upper_factor,
                weight=p.delay_weight,
            ),
            FuzzyGoal.from_reference(
                AREA, reference.area,
                goal_factor=p.area_goal_factor, upper_factor=p.area_upper_factor,
                weight=p.area_weight,
            ),
        ]
        return FuzzyGoalAggregator(goals, beta=p.beta)

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def placement(self) -> Placement:
        """The solution this evaluator is bound to."""
        return self._placement

    @property
    def num_cells(self) -> int:
        """Number of swappable items (protocol surface: ``SwapEvaluator``)."""
        return self._placement.num_cells

    @property
    def instance_name(self) -> str:
        """Circuit name (protocol surface: seeds worker RNG streams)."""
        return self._placement.netlist.name

    @property
    def params(self) -> CostModelParams:
        """Cost-model configuration."""
        return self._params

    @property
    def reference(self) -> ObjectiveVector:
        """Reference objective vector anchoring the goals."""
        return self._reference

    @property
    def aggregator(self) -> FuzzyGoalAggregator:
        """The fuzzy goal aggregator (built in weighted-sum mode too, for its goals)."""
        return self._aggregator

    def objectives(self) -> ObjectiveVector:
        """Current crisp objective values from the incremental caches."""
        return ObjectiveVector(
            wirelength=self._wirelength.total,
            delay=self._timing.critical_delay,
            area=self._area.total,
        )

    def cost(self) -> float:
        """Scalar cost of the current placement (cached between mutations)."""
        if self._cached_cost is None:
            self._cached_cost = self._scorer.cost(
                (self._wirelength.total, self._timing.critical_delay, self._area.total)
            )
        return self._cached_cost

    def exact_cost(self) -> float:
        """Scalar cost with the timing surrogate refreshed to an exact STA."""
        self._timing.refresh()
        self._cached_cost = None
        return self.cost()

    def memberships(self) -> Dict[str, float]:
        """Per-objective fuzzy memberships of the current placement."""
        values = self.objectives()
        return dict(
            zip(
                self._aggregator.names,
                self._aggregator.memberships((values.wirelength, values.delay, values.area)),
            )
        )

    # ------------------------------------------------------------------ #
    # swap evaluation / mutation
    # ------------------------------------------------------------------ #
    def evaluate_swaps_batch(self, pairs) -> np.ndarray:
        """Costs the solution would have under each candidate swap of a batch.

        ``pairs`` is any ``(n, 2)`` array-like of cell pairs (or a sequence of
        2-tuples).  Each pair is scored independently against the *current*
        solution — semantically ``n`` calls to :meth:`evaluate_swap` — in
        one pass: the pairs' context is gathered once into a
        :class:`~repro.placement.solution.SwapBatch`, the wirelength, timing
        and area objectives each write their delta row into one ``(3, n)``
        block, the current objective values are added, and one fused step
        aggregates the block.  A self-pair's deltas are exactly zero, so it
        scores :meth:`cost`.  Nothing is mutated.
        """
        batch = SwapBatch(self._placement, pairs)
        if batch.size == 0:
            return np.zeros(0, dtype=np.float64)
        self.evaluations += int(np.count_nonzero(batch.distinct))
        block = np.empty((3, batch.size), dtype=np.float64)
        self._wirelength.deltas_for_swaps(batch, block[0])
        self._timing.deltas_for_swaps(batch, block[1])
        self._area.deltas_for_swaps(batch, block[2])
        block += np.array(
            [[self._wirelength.total], [self._timing.critical_delay], [self._area.total]]
        )
        return self._scorer.cost_block(block)

    def evaluate_swap(self, cell_a: int, cell_b: int) -> float:
        """Cost the solution would have if ``cell_a`` and ``cell_b`` swapped.

        A single-pair call into :meth:`evaluate_swaps_batch`, so scalar and
        batched evaluation agree exactly.
        """
        return float(self.evaluate_swaps_batch(np.array([[cell_a, cell_b]], dtype=np.int64))[0])

    def commit_swap(self, cell_a: int, cell_b: int) -> float:
        """Apply the swap, update all incremental caches and return the new cost."""
        if cell_a == cell_b:
            return self.cost()
        self.evaluations += 1
        self._placement.swap_cells(cell_a, cell_b)
        self._wirelength.commit_swap(cell_a, cell_b)
        self._area.commit_swap(cell_a, cell_b)
        self._timing.commit_swap(cell_a, cell_b)
        self._cached_cost = None
        return self.cost()

    def apply_swaps(self, pairs, *, exact_timing: bool = False) -> float:
        """Commit a short swap sequence against the resident state.

        The delta form of the parallel protocol: instead of installing a full
        solution and rebuilding every cache, the few swaps that separate the
        resident solution from the target are committed as one bulk update —
        the placement is swapped through, the affected nets' bboxes are
        re-reduced once, the area row sums are scatter-updated from the net
        start→end row changes, and the timing state is advanced once.

        With ``exact_timing=True`` the timing analysis is refreshed exactly,
        leaving the evaluator in the same state a full
        :meth:`install_solution` of the target would produce — this is what
        the worker adopt paths use, so delta shipment and full shipment are
        interchangeable; like an install, such an adoption does *not* count
        toward :attr:`evaluations` (it is protocol bookkeeping, not search
        work).  Without it, the surrogate advances as if the swaps had been
        committed one by one and the swaps count as work (a single-pair call
        degenerates to :meth:`commit_swap`).
        """
        arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if arr.size:
            arr = arr[arr[:, 0] != arr[:, 1]]
        if arr.size == 0:
            if exact_timing:
                self._timing.refresh()
                self._cached_cost = None
            return self.cost()
        if len(arr) == 1 and not exact_timing:
            return self.commit_swap(int(arr[0, 0]), int(arr[0, 1]))
        if not exact_timing:
            self.evaluations += len(arr)
        cells = np.unique(arr)
        old_rows = self._placement.layout.slot_row[
            self._placement.cell_to_slot[cells]
        ]
        for cell_a, cell_b in arr.tolist():
            self._placement.swap_cells(cell_a, cell_b)
        self._wirelength.recompute_cells(cells)
        self._area.apply_moved_cells(cells, old_rows)
        if exact_timing:
            self._timing.refresh()
        else:
            self._timing.apply_bulk(cells, len(arr))
        self._cached_cost = None
        return self.cost()

    def install_solution(self, cell_to_slot: np.ndarray) -> float:
        """Adopt a whole new assignment (e.g. received from another worker)."""
        self._placement.set_assignment(cell_to_slot)
        self.rebuild()
        return self.cost()

    def rebuild(self) -> None:
        """Rebuild every incremental cache from the placement's current state."""
        self._wirelength.rebuild()
        self._area.rebuild()
        self._timing.refresh()
        self._cached_cost = None

    def snapshot(self) -> np.ndarray:
        """Copy of the current assignment, suitable for message passing."""
        return self._placement.to_array()

    def save_state(self) -> EvaluatorState:
        """Snapshot the solution and every incremental cache.

        Restoring via :meth:`restore_state` is much cheaper than undoing a
        sequence of swaps with reverse commits: it is a handful of array
        copies instead of per-swap cache updates, and it restores the timing
        surrogate exactly (reverse commits advance its refresh counter).
        """
        return EvaluatorState(
            assignment=self._placement.save_state(),
            wirelength=self._wirelength.save_state(),
            area=self._area.save_state(),
            timing=self._timing.save_state(),
            cached_cost=self._cached_cost,
        )

    def restore_state(self, state: EvaluatorState) -> None:
        """Rewind the evaluator to a snapshot from :meth:`save_state`.

        The work counter (:attr:`evaluations`) is deliberately *not* rewound —
        trials spent on an abandoned branch were still spent.
        """
        self._placement.restore_state(state.assignment)
        self._wirelength.restore_state(state.wirelength)
        self._area.restore_state(state.area)
        self._timing.restore_state(state.timing)
        self._cached_cost = state.cached_cost

    def diversification_distances(
        self, cell: int, candidates: np.ndarray
    ) -> np.ndarray:
        """Manhattan slot distance from ``cell`` to each candidate cell.

        The problem-level neighbourhood hook of the ``SwapEvaluator``
        protocol: diversification pushes a rarely-moved cell to the farthest
        of a few sampled partners, and "far" for placement is the Manhattan
        distance between the cells' current slots.
        """
        candidates = np.asarray(candidates, dtype=np.int64)
        x = self._placement.cell_x()
        y = self._placement.cell_y()
        return np.abs(x[candidates] - x[cell]) + np.abs(y[candidates] - y[cell])

    def verify_consistency(self, *, atol: float = 1e-6) -> None:
        """Check incremental caches against from-scratch recomputation.

        Used by tests and (optionally) by long runs as a self-check.  Raises
        :class:`~repro.errors.CostModelError` on divergence.
        """
        from .area import full_area
        from .wirelength import full_hpwl

        _, wl = full_hpwl(self._placement)
        if abs(wl - self._wirelength.total) > atol * max(1.0, abs(wl)):
            raise CostModelError(
                f"wirelength cache drift: cached={self._wirelength.total}, exact={wl}"
            )
        try:
            self._wirelength.verify_consistency(atol=atol)
        except ValueError as exc:
            raise CostModelError(str(exc)) from exc
        area = full_area(self._placement)
        if abs(area - self._area.total) > atol * max(1.0, abs(area)):
            raise CostModelError(
                f"area cache drift: cached={self._area.total}, exact={area}"
            )
        self._placement.validate()


def make_evaluator(
    layout: Layout,
    cell_to_slot: np.ndarray,
    params: CostModelParams | None = None,
    *,
    reference: Optional[ObjectiveVector] = None,
) -> CostEvaluator:
    """Convenience constructor: build a placement + evaluator from an array."""
    placement = Placement(layout, cell_to_slot)
    return CostEvaluator(placement, params, reference=reference)
