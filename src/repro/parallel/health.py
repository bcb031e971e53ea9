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
  observed rate rather than its declared machine speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .config import FaultPolicy

__all__ = ["WorkerHealth", "HealthLedger"]


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
    #: ``dead_keys`` excludes drained workers and ``install_state(revive=True)``
    #: does not resurrect them.
    drained: bool = False


class HealthLedger:
    """Deadline, liveness and throughput bookkeeping for a set of workers.

    ``speed_hints`` declares expected *relative* speeds (e.g. a GPU worker at
    ``40.0`` next to CPU workers at ``1.0``).  Limplock detection and budget
    shrinking compare hint-normalised rates, so a CPU worker in a mixed
    cluster is only limplocked when it runs slow *for a CPU* — without hints
    a 10–50× device-speed skew would strangle every CPU worker's iteration
    budget even though nothing is wrong with it.  Re-partitioning weights
    (:meth:`throughput_weights`) deliberately stay raw-observed: splitting
    cells by real throughput is the point of measuring it.  Hints are
    config, not observations — they are re-supplied at construction and stay
    out of the checkpoint rows.
    """

    def __init__(
        self,
        policy: FaultPolicy,
        keys: List[int],
        *,
        speed_hints: Optional[Dict[int, float]] = None,
    ) -> None:
        self._policy = policy
        self._workers: Dict[int, WorkerHealth] = {key: WorkerHealth(key=key) for key in keys}
        self._hints: Dict[int, float] = {}
        if speed_hints:
            for key, hint in speed_hints.items():
                if key in self._workers:
                    self.set_speed_hint(key, hint)

    def set_speed_hint(self, key: int, hint: float) -> None:
        """Declare a worker's expected relative speed (must be positive)."""
        hint = float(hint)
        if not hint > 0 or hint != hint or hint == float("inf"):
            raise ValueError(f"speed hint must be a positive finite number, got {hint!r}")
        self._hints[key] = hint

    def _normalized_rate(self, worker: WorkerHealth) -> Optional[float]:
        """Observed rate divided by the worker's speed hint (default 1.0)."""
        if worker.rate is None:
            return None
        return worker.rate / self._hints.get(worker.key, 1.0)

    # -- liveness -------------------------------------------------------- #
    def alive_keys(self) -> List[int]:
        """Keys of workers still considered alive, in key order."""
        return [key for key in sorted(self._workers) if self._workers[key].alive]

    def dead_keys(self) -> List[int]:
        """Keys of workers that died (drained workers are *not* dead)."""
        return [
            key
            for key in sorted(self._workers)
            if not self._workers[key].alive and not self._workers[key].drained
        ]

    def drained_keys(self) -> List[int]:
        return [key for key in sorted(self._workers) if self._workers[key].drained]

    def is_alive(self, key: int) -> bool:
        return self._workers[key].alive

    def mark_dead(self, key: int) -> None:
        self._workers[key].alive = False

    def mark_drained(self, key: int) -> None:
        """Gracefully retire a worker: off the roster, but without a strike."""
        worker = self._workers[key]
        worker.alive = False
        worker.drained = True

    def add_worker(self, key: int, *, speed_hint: Optional[float] = None) -> None:
        """Register a mid-run admitted worker (no-op if already tracked)."""
        if key not in self._workers:
            self._workers[key] = WorkerHealth(key=key)
        if speed_hint is not None:
            self.set_speed_hint(key, speed_hint)

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
            alpha = self._policy.throughput_smoothing
            worker.rate = alpha * observed + (1.0 - alpha) * worker.rate
        self._update_limplock(worker)

    def _update_limplock(self, worker: WorkerHealth) -> None:
        """Fold the report just recorded into ``worker``'s limplock streak.

        Only the reporting worker's streak moves — a streak counts *its own*
        consecutive slow reports, one per round, not every peer's report.
        Rates are hint-normalised, so in a declared-heterogeneous cluster
        "slow" means slow relative to what the worker's hardware should do,
        not slow relative to the fastest device class.
        """
        rates = [
            norm
            for w in self._workers.values()
            if w.alive and (norm := self._normalized_rate(w)) is not None
        ]
        if not rates:
            return
        fastest = max(rates)
        if fastest <= 0:
            return
        threshold = self._policy.limplock_ratio * fastest
        if self._normalized_rate(worker) < threshold:
            worker.slow_streak += 1
        else:
            worker.slow_streak = 0
            worker.limplocked = False
        if worker.slow_streak >= self._policy.limplock_rounds:
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
        survivor, floored at ``min_iteration_share`` of the base.
        """
        worker = self._workers[key]
        if not worker.limplocked or worker.rate is None:
            return base_iterations
        rates = [
            norm
            for w in self._workers.values()
            if w.alive and (norm := self._normalized_rate(w)) is not None
        ]
        fastest = max(rates) if rates else 0.0
        if fastest <= 0:
            return base_iterations
        floor = max(1, int(round(base_iterations * self._policy.min_iteration_share)))
        scaled = int(round(base_iterations * self._normalized_rate(worker) / fastest))
        return max(floor, min(base_iterations, scaled))

    # -- checkpointing --------------------------------------------------- #
    def export_hints(self) -> Dict[int, float]:
        """Current speed hints (config, not observations) for persistence."""
        return dict(self._hints)

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

    def install_state(self, state, *, revive: bool = True) -> None:
        """Restore a snapshot from a checkpoint.

        ``revive`` resets every non-drained worker to alive: deaths are
        per-epoch facts (a cold resume respawns all workers; a pool resume
        repairs dead loops first), while throughput history — and graceful
        retirements — are worth keeping.
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
            if revive:
                worker.alive = not worker.drained
                worker.missed_deadlines = 0
