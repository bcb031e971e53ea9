"""Speedup for non-deterministic algorithms: time-to-quality ratios.

Section 5 of the paper defines speedup for tabu search (a non-deterministic
algorithm) differently from the usual fixed-work definition::

    speedup(n, x) = t(1, x) / t(n, x)

where ``t(k, x)`` is the time needed to *first reach a solution of quality x*
using ``k`` workers.  This module implements that definition over
:class:`~repro.metrics.trace.CostTrace` objects plus the helpers the
experiments need: choosing a quality threshold every configuration actually
reached, and assembling the whole speedup curve of an experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Mapping, Optional

from ..errors import ExperimentError
from .trace import CostTrace

__all__ = [
    "SpeedupPoint",
    "time_to_quality",
    "common_quality_threshold",
    "speedup_curve",
]


@dataclass(frozen=True, slots=True)
class SpeedupPoint:
    """One point of a speedup curve."""

    workers: int
    threshold: float
    baseline_time: float
    time: Optional[float]
    speedup: Optional[float]


def time_to_quality(trace: CostTrace, threshold: float) -> Optional[float]:
    """Time at which ``trace`` first reaches cost ``threshold`` (or ``None``)."""
    return trace.time_to_reach(threshold)


def common_quality_threshold(
    traces: Iterable[CostTrace], *, slack: float = 0.0
) -> float:
    """A quality target that *every* given trace reaches.

    The natural choice is the worst of the per-trace best costs (so the
    slowest configuration still reaches it), optionally relaxed by a relative
    ``slack`` (e.g. ``slack=0.02`` targets a cost 2% above that).
    """
    traces = list(traces)
    if not traces:
        raise ExperimentError("common_quality_threshold needs at least one trace")
    if slack < 0:
        raise ExperimentError(f"slack must be non-negative, got {slack}")
    worst_best = max(trace.best_cost for trace in traces)
    return worst_best * (1.0 + slack)


def speedup_curve(
    traces_by_workers: Mapping[int, CostTrace],
    *,
    baseline_workers: int = 1,
    threshold: Optional[float] = None,
    slack: float = 0.0,
) -> List[SpeedupPoint]:
    """Speedup of every configuration relative to the baseline configuration.

    Parameters
    ----------
    traces_by_workers:
        Mapping from worker count (number of CLWs or TSWs) to the trace of
        that run.
    baseline_workers:
        The worker count used as ``t(1, x)`` — the paper uses one CLW (or one
        TSW).
    threshold:
        Quality target; defaults to a target every run reached
        (:func:`common_quality_threshold`).
    """
    if baseline_workers not in traces_by_workers:
        raise ExperimentError(
            f"baseline configuration ({baseline_workers} workers) missing from traces"
        )
    if threshold is None:
        threshold = common_quality_threshold(traces_by_workers.values(), slack=slack)
    baseline = traces_by_workers[baseline_workers]
    baseline_time = baseline.time_to_reach(threshold)
    if baseline_time is None:
        raise ExperimentError(
            "baseline trace does not reach the chosen threshold; "
            "pick a larger slack or a different threshold"
        )
    points: List[SpeedupPoint] = []
    for workers in sorted(traces_by_workers):
        trace = traces_by_workers[workers]
        t_n = trace.time_to_reach(threshold)
        speedup = None
        if t_n is not None and t_n > 0 and baseline_time > 0:
            speedup = baseline_time / t_n
        points.append(
            SpeedupPoint(
                workers=workers,
                threshold=threshold,
                baseline_time=baseline_time,
                time=t_n,
                speedup=speedup,
            )
        )
    return points
