"""Measurement utilities: traces, time-to-quality speedup and text reports."""

from .report import format_mapping, format_series, format_table
from .speedup import (
    SpeedupPoint,
    common_quality_threshold,
    speedup_curve,
    time_to_quality,
)
from .trace import (
    CostTrace,
    FaultEvent,
    best_so_far_envelope,
)

__all__ = [
    "CostTrace",
    "FaultEvent",
    "best_so_far_envelope",
    "SpeedupPoint",
    "common_quality_threshold",
    "speedup_curve",
    "time_to_quality",
    "format_mapping",
    "format_series",
    "format_table",
]
