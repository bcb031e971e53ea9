"""Worker health ledger: liveness, deadlines and throughput.

In fault mode every :class:`~repro.parallel.coordinator.Coordinator` keeps
one :class:`HealthLedger` over its children — the master's over its TSWs,
each TSW's over its CLWs: every missed deadline increments a strike counter,
and a death — by strike-out or by backend obituary — flips the worker's
``alive`` bit.  The master also folds every TSW report into an EWMA of the
worker's *observed* per-round throughput.  The ledger is pure bookkeeping
driven by times the caller passes in (virtual on the simulated backend,
wall-clock on the real ones), so the same code is bit-deterministic under
the simulator and its state serialises into run checkpoints.

Throughput observations feed two decisions:

* **re-partitioning** — when a worker dies, survivors split the cells
  proportionally to their smoothed rates (:meth:`throughput_weights`);
* **limplock shrinking** — a persistently slow-but-alive worker gets a
  smaller local-iteration budget (:meth:`iteration_budget`) sized from its
  observed rate relative to the fastest survivor's.

The constants below tune both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .config import FaultPolicy

__all__ = ["WorkerHealth", "HealthLedger"]

#: A worker whose observed rate stays below this fraction of the
#: fastest survivor's for :data:`LIMPLOCK_ROUNDS` consecutive reports is
#: limplocked: it stays in the run with a shrunk local-iteration budget.
LIMPLOCK_RATIO = 0.25
LIMPLOCK_ROUNDS = 2
#: Floor of a limplocked worker's budget, as a fraction of the configured
#: ``tabu.local_iterations`` (so a limplocked worker still contributes).
MIN_ITERATION_SHARE = 0.25
#: EWMA weight of the newest per-round throughput observation.
THROUGHPUT_SMOOTHING = 0.5


@dataclass
class WorkerHealth:
    """Observed state of one worker (plain data, checkpoint-friendly)."""

    key: int
    alive: bool = True
    missed_deadlines: int = 0
    rate: Optional[float] = None  # EWMA evaluations/second
    last_evaluations: int = 0
    rounds_reported: int = 0
    slow_streak: int = 0
    limplocked: bool = False
    #: Gracefully retired (no strike): not alive, but not dead either —
    #: ``install_state`` does not resurrect drained workers.
    drained: bool = False


class HealthLedger:
    """Deadline, liveness and throughput bookkeeping for a set of workers.

    Limplock detection, budget shrinking and re-partitioning weights all
    compare raw observed rates: a worker's speed is what the ledger measures,
    not what anyone declares.
    """

    def __init__(self, policy: FaultPolicy, keys: List[int]) -> None:
        self._policy = policy
        self._workers: Dict[int, WorkerHealth] = {key: WorkerHealth(key=key) for key in keys}

    def _alive_rates(self) -> List[float]:
        """Observed rates of the live workers that have reported one."""
        return [w.rate for w in self._workers.values() if w.alive and w.rate is not None]

    # -- liveness -------------------------------------------------------- #
    def mark_dead(self, key: int) -> None:
        self._workers[key].alive = False

    def mark_drained(self, key: int) -> None:
        """Gracefully retire a worker: off the roster, but without a strike."""
        worker = self._workers[key]
        worker.alive = False
        worker.drained = True

    def add_worker(self, key: int) -> None:
        """Register a mid-run admitted worker (no-op if already tracked)."""
        if key not in self._workers:
            self._workers[key] = WorkerHealth(key=key)

    def register_miss(self, key: int) -> bool:
        """Record a missed deadline; returns True when the worker struck out."""
        worker = self._workers[key]
        worker.missed_deadlines += 1
        return worker.missed_deadlines > self._policy.max_missed_deadlines

    def clear_misses(self, key: int) -> None:
        self._workers[key].missed_deadlines = 0

    # -- throughput ------------------------------------------------------ #
    def record_report(self, key: int, evaluations_total: int, elapsed: float) -> None:
        """Fold one round's report into the worker's smoothed throughput.

        ``evaluations_total`` is the worker's *cumulative* evaluation count
        (what :class:`~repro.parallel.messages.TswResult` carries); the
        ledger differences it against the previous report.
        """
        worker = self._workers[key]
        worker.rounds_reported += 1
        worker.missed_deadlines = 0
        delta = max(0, int(evaluations_total) - worker.last_evaluations)
        worker.last_evaluations = int(evaluations_total)
        if elapsed <= 0:
            return
        observed = delta / elapsed
        if worker.rate is None:
            worker.rate = observed
        else:
            worker.rate = (
                THROUGHPUT_SMOOTHING * observed + (1.0 - THROUGHPUT_SMOOTHING) * worker.rate
            )
        self._update_limplock(worker)

    def _update_limplock(self, worker: WorkerHealth) -> None:
        """Fold the report just recorded into ``worker``'s limplock streak.

        Only the reporting worker's streak moves — a streak counts *its own*
        consecutive slow reports, one per round, not every peer's report.
        """
        rates = self._alive_rates()
        if not rates:
            return
        fastest = max(rates)
        if fastest <= 0:
            return
        threshold = LIMPLOCK_RATIO * fastest
        if worker.rate < threshold:
            worker.slow_streak += 1
        else:
            worker.slow_streak = 0
            worker.limplocked = False
        if worker.slow_streak >= LIMPLOCK_ROUNDS:
            worker.limplocked = True

    def limplocked_keys(self) -> List[int]:
        return [
            key
            for key in sorted(self._workers)
            if self._workers[key].alive and self._workers[key].limplocked
        ]

    def rate_of(self, key: int) -> Optional[float]:
        return self._workers[key].rate

    def throughput_weights(self, keys: List[int]) -> Optional[List[float]]:
        """Smoothed rates of ``keys`` as partition weights.

        Returns ``None`` unless *every* worker has a positive observed rate —
        re-partitioning on declared-speed guesses is exactly what this layer
        replaces, so without full observations the caller splits evenly.
        """
        weights: List[float] = []
        for key in keys:
            rate = self._workers[key].rate
            if rate is None or rate <= 0:
                return None
            weights.append(rate)
        return weights

    def iteration_budget(self, key: int, base_iterations: int) -> int:
        """Local-iteration budget for one worker under limplock shrinking.

        Healthy workers keep the configured budget; a limplocked worker gets
        a budget proportional to its observed rate relative to the fastest
        survivor, floored at :data:`MIN_ITERATION_SHARE` of the base.
        """
        worker = self._workers[key]
        if not worker.limplocked or worker.rate is None:
            return base_iterations
        rates = self._alive_rates()
        fastest = max(rates) if rates else 0.0
        if fastest <= 0:
            return base_iterations
        floor = max(1, int(round(base_iterations * MIN_ITERATION_SHARE)))
        scaled = int(round(base_iterations * worker.rate / fastest))
        return max(floor, min(base_iterations, scaled))

    # -- checkpointing --------------------------------------------------- #
    def export_state(self) -> Tuple[Tuple[int, bool, int, Optional[float], int, int, int, bool, bool], ...]:
        """Plain-tuple snapshot (stable field order; pickles byte-stably)."""
        return tuple(
            (
                w.key,
                w.alive,
                w.missed_deadlines,
                w.rate,
                w.last_evaluations,
                w.rounds_reported,
                w.slow_streak,
                w.limplocked,
                w.drained,
            )
            for _, w in sorted(self._workers.items())
        )

    def install_state(self, state) -> None:
        """Restore a snapshot from a checkpoint, reviving the dead.

        Every non-drained worker comes back alive with no missed deadlines:
        deaths are per-epoch facts (a cold resume respawns all workers; a
        pool resume repairs dead loops first), while throughput history —
        and graceful retirements — are worth keeping.
        """
        for row in state:
            key = row[0]
            if key not in self._workers:
                continue
            worker = self._workers[key]
            (
                _,
                worker.alive,
                worker.missed_deadlines,
                worker.rate,
                worker.last_evaluations,
                worker.rounds_reported,
                worker.slow_streak,
                worker.limplocked,
                worker.drained,
            ) = row
            worker.alive = not worker.drained
            worker.missed_deadlines = 0
