"""Exception hierarchy for the ``repro`` library.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything raised by this package with a single ``except`` clause while
still being able to distinguish configuration mistakes from runtime protocol
violations in the simulated cluster.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "NetlistError",
    "LayoutError",
    "PlacementError",
    "CostModelError",
    "TabuSearchError",
    "ClusterError",
    "ProcessError",
    "SimulationError",
    "ParallelSearchError",
    "ExperimentError",
    "SessionError",
]


class ReproError(Exception):
    """Base class for every exception raised by the ``repro`` package."""


class NetlistError(ReproError):
    """Malformed netlist: dangling pins, unknown cells, duplicate names, ..."""


class LayoutError(ReproError):
    """Invalid layout geometry (non-positive rows, too few slots, ...)."""


class PlacementError(ReproError):
    """Invalid placement solution (cell placed twice, slot out of range, ...)."""


class CostModelError(ReproError):
    """Misconfigured cost model (bad goal vector, negative weights, ...)."""


class TabuSearchError(ReproError):
    """Invalid tabu-search configuration or internal state."""


class ClusterError(ReproError):
    """Invalid heterogeneous-cluster specification."""


class ProcessError(ReproError):
    """Error raised by or about a simulated PVM process."""


class SimulationError(ReproError, ValueError):
    """Discrete-event simulator invariant violation (time going backwards, deadlock, ...).

    Also a :class:`ValueError`: fault plans are user-supplied configuration
    (JSON files on the CLI surface), so malformed plans must be catchable by
    callers that only know stdlib exception types.
    """


class ParallelSearchError(ReproError):
    """Error in the master/TSW/CLW parallel search protocol."""


class ExperimentError(ReproError):
    """Invalid experiment or benchmark configuration."""


class SessionError(ReproError):
    """Invalid search-session lifecycle transition or checkpoint artifact."""
