"""Cost-versus-time traces.

Experiments observe a search through its *trace*: the best cost known at a
sequence of (virtual) time points.  :class:`CostTrace` wraps such a series
with the queries the experiments need — time-to-quality, final best, and a
monotone envelope (best-so-far) for plotting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from ..errors import ExperimentError

__all__ = [
    "CostTrace",
    "FaultEvent",
    "best_so_far_envelope",
]


@dataclass(frozen=True)
class FaultEvent:
    """One fault-related incident observed during a parallel run.

    Recorded by the fault-tolerant master (and the session layer for pool
    repairs) so a run's recovery trajectory is inspectable next to its cost
    trace.  ``kind`` is one of ``"worker-dead"``, ``"deadline-resend"``,
    ``"limplock"``, ``"range-reassigned"``, ``"worker-respawned"``,
    ``"worker-admitted"``, ``"worker-drained"`` or ``"all-workers-dead"``.
    """

    time: float
    kind: str
    worker: str
    detail: str = ""


def best_so_far_envelope(
    points: Iterable[Tuple[float, float]],
) -> Tuple[Tuple[float, float], ...]:
    """Monotone best-so-far reduction of raw ``(time, cost)`` pairs.

    Sorts by time and replaces each cost with the best seen so far — the
    merge step the master applies to its own trace plus all per-worker
    traces.  Exposed as a plain function so the session layer can stitch
    the envelopes of consecutive run segments without building a
    :class:`CostTrace` (which rejects empty series).
    """
    ordered = sorted((float(t), float(c)) for t, c in points)
    best = float("inf")
    out: List[Tuple[float, float]] = []
    for t, c in ordered:
        best = min(best, c)
        out.append((t, best))
    return tuple(out)


@dataclass(frozen=True)
class CostTrace:
    """A best-cost-over-time series.

    Points are ``(time, cost)`` tuples with non-decreasing times.  The cost
    series does not have to be monotone (a raw per-iteration trace may go up
    and down); :meth:`envelope` derives the monotone best-so-far version.
    """

    points: Tuple[Tuple[float, float], ...]
    label: str = ""

    def __post_init__(self) -> None:
        if not self.points:
            raise ExperimentError(f"trace {self.label!r}: must contain at least one point")
        times = [t for t, _ in self.points]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ExperimentError(f"trace {self.label!r}: times must be non-decreasing")

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[float, float]], label: str = "") -> "CostTrace":
        """Build a trace from any iterable of ``(time, cost)`` pairs."""
        return cls(points=tuple((float(t), float(c)) for t, c in pairs), label=label)

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.points)

    @property
    def times(self) -> Tuple[float, ...]:
        """The time coordinates."""
        return tuple(t for t, _ in self.points)

    @property
    def costs(self) -> Tuple[float, ...]:
        """The cost coordinates."""
        return tuple(c for _, c in self.points)

    @property
    def best_cost(self) -> float:
        """Lowest cost anywhere on the trace."""
        return min(c for _, c in self.points)

    @property
    def duration(self) -> float:
        """Time span covered by the trace."""
        return self.points[-1][0] - self.points[0][0]

    def envelope(self) -> "CostTrace":
        """Monotone best-so-far version of the trace."""
        best = float("inf")
        out: List[Tuple[float, float]] = []
        for t, c in self.points:
            best = min(best, c)
            out.append((t, best))
        return CostTrace(points=tuple(out), label=self.label)

    def time_to_reach(self, threshold: float) -> Optional[float]:
        """Earliest time at which the cost is at or below ``threshold``."""
        for t, c in self.points:
            if c <= threshold:
                return t
        return None

    def cost_at(self, time: float) -> float:
        """Best cost known at ``time`` (step interpolation; before start = first cost)."""
        best = self.points[0][1]
        found_any = False
        for t, c in self.points:
            if t <= time:
                best = min(best, c) if found_any else c
                found_any = True
            else:
                break
        if not found_any:
            return self.points[0][1]
        return best
