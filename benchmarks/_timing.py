"""One way to time, check and record a CI bar.

Every bar script times the sides of a comparison with :func:`alternate`:
after a warm-up, each round runs every side back to back, and the side
that goes first rotates from round to round, so a slow spell of a shared
host moves one round of every side alike and no side always runs first.
A timed value is written as :func:`summary`'s ``{median, iqr, n}``, and a
ratio bar reads :func:`ratio`, the median of its per-round ratios.
:func:`check` prints one line per :class:`Bar`, writes the report with a
host block and returns the script's exit code.  The thresholds are module
constants of the scripts; only the output paths are settable.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Mapping, Sequence

import numpy as np


def timed(func: Callable[[], object], calls: int = 1) -> Callable[[], float]:
    """A side that calls ``func`` ``calls`` times back to back and returns
    the mean seconds per call."""

    def side() -> float:
        start = perf_counter()
        for _ in range(calls):
            func()
        return (perf_counter() - start) / calls

    return side


def alternate(
    sides: Mapping[str, Callable[[], float]], rounds: int, warmup: int = 1
) -> Dict[str, List[float]]:
    """Each side's seconds in each of ``rounds`` alternating rounds.

    A side runs its work once and returns the seconds it measured (wrap a
    plain function with :func:`timed`).  Every side first runs ``warmup``
    times, untimed; then round ``r`` runs all sides starting from the
    ``r``-th (mod the side count), in their order.
    """
    names = list(sides)
    for _ in range(warmup):
        for name in names:
            sides[name]()
    samples: Dict[str, List[float]] = {name: [] for name in names}
    for index in range(rounds):
        first = index % len(names)
        for name in names[first:] + names[:first]:
            samples[name].append(sides[name]())
    return samples


def summary(samples: Sequence[float], scale: float = 1.0) -> dict:
    """``{median, iqr, n}`` of ``samples`` times ``scale``."""
    values = [value * scale for value in samples]
    iqr = 0.0
    if len(values) > 1:
        quartiles = statistics.quantiles(values, n=4, method="inclusive")
        iqr = quartiles[2] - quartiles[0]
    return {"median": statistics.median(values), "iqr": iqr, "n": len(values)}


def ratio(numerators: Sequence[float], denominators: Sequence[float]) -> dict:
    """:func:`summary` of the per-round ratios of two alternated sides."""
    return summary([a / b for a, b in zip(numerators, denominators)])


def available_cpus() -> int:
    """CPUs actually available to this process (cgroup/affinity aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def host() -> dict:
    """The machine a report was measured on."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            model = next(
                (line.split(":", 1)[1].strip() for line in cpuinfo if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {
        "cpu_model": model,
        "available_cores": available_cpus(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


@dataclass(frozen=True)
class Bar:
    """A measured ``value`` against a constant ``limit``.

    A bar is met at its limit.  One that is not ``enforced`` (on this
    host, or while an either-or partner is met) is reported and never
    fails.
    """

    name: str
    value: float
    limit: float
    higher_is_better: bool = False
    enforced: bool = True

    @property
    def met(self) -> bool:
        if self.higher_is_better:
            return self.value >= self.limit
        return self.value <= self.limit


def check(bars: Sequence[Bar], report: dict, output: Path) -> int:
    """Print one line per bar, write ``report`` with its bars and the host
    block to ``output``, and return 1 if an enforced bar is not met."""
    rows = []
    for bar in bars:
        status = ("OK" if bar.met else "FAIL") if bar.enforced else "not enforced"
        sign = ">=" if bar.higher_is_better else "<="
        print(f"{status}: {bar.name} {bar.value:.4g} (bar {sign} {bar.limit:g})")
        rows.append({**asdict(bar), "status": status})
    payload = {"host": host(), "bars": rows, **report}
    Path(output).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")
    return 1 if any(row["status"] == "FAIL" for row in rows) else 0
